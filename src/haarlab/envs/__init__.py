"""Environments: grid mazes (maze), the point-mass arena (point), its
ray sensors (raycast), and finite MDPs for the exact oracle (tabular)."""
