"""The point-mass arena: grid mazes (maze), the point mass (point) and
its ray sensors (raycast)."""
