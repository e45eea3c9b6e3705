"""Attack-cell benchmark for gtattack: workloads, output checks and tracing."""
