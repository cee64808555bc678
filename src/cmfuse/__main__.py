from .cli import entry_point

raise SystemExit(entry_point())
