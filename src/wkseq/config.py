"""The CLI's settings files, `--ladder-schedule`'s growth schedule and
`--config`'s `[run]` section; imported only when one of those is given."""
from __future__ import annotations


def load_schedule_file(path: str) -> tuple[int, ...]:
    """Read a growth-factor schedule: one integer per line, # comments."""
    entries = []
    with open(path) as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            entries.append(int(line))
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: schedule entry is not an integer: {raw!r}"
            ) from None
    if not entries:
        raise ValueError(f"{path}: schedule file has no entries")
    return tuple(entries)


def run_section(path: str) -> dict[str, str]:
    """The [run] section's settings, once its ladder policy is checked, as
    defaults for the flags of the same names, which check them in turn."""
    import configparser  # only here: a --ladder-schedule run does not need it

    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValueError(f"config file not found: {path}")
    if not parser.has_section("run"):
        raise ValueError(f"{path}: missing [run] section")
    section = parser["run"]
    policy = section.get("ladder_policy", "default-minimal")
    if policy == "explicit":
        if not section.get("ladder_schedule"):
            raise ValueError(f"{path}: explicit ladder policy needs ladder_schedule")
    elif policy != "default-minimal":
        raise ValueError(f"{path}: unknown ladder_policy {policy!r}")
    elif "ladder_schedule" in section:
        raise ValueError(f"{path}: ladder_schedule needs ladder_policy = explicit")
    keys = ("ladder_schedule", "format", "decimals", "parallelism")
    return {key: section[key] for key in keys if key in section}
