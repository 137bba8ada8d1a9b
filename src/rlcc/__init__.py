"""Deep-Q congestion-window control over a deterministic dumbbell-network
simulator, with a factorial experiment runner and OLS effect analysis."""

__version__ = "0.1.0"
