"""botclf: a GRU+CNN network-flow classifier for IoT botnet attack detection.

A small two-branch model (1-D convolution + batch normalization on one
branch, a GRU on the other) over 16 selected flow features, trained with
hand-written backpropagation and RMSProp, plus the full per-class and
overall statistics suite for 6-way attack classification.
"""

__version__ = "0.1.0"
