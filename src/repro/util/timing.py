"""Duration formatting for the CLI's timing lines."""


def format_seconds(seconds: float) -> str:
    """Render a duration the way the paper's tables do (3 significant figs)."""
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 60.0:
        return f"{seconds:.2f}s"
    minutes, rem = divmod(seconds, 60.0)
    return f"{int(minutes)}m{rem:04.1f}s"
