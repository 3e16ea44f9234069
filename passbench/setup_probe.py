"""Set-up as a fresh interpreter pays it: import, parse configs, build models.

Usage: python3 setup_probe.py SRC_DIR CONFIG_FILE...

The benchmark times this whole process from the outside; the probe itself
only does the work.
"""

import sys


def main(argv: list) -> int:
    sys.path.insert(0, argv[0])
    import levy_passage.cli  # noqa: F401  (the import a CLI run pays)
    from levy_passage.config import load_config, model_from_config, \
        sim_from_config
    for path in argv[1:]:
        cfg = load_config(path)
        model_from_config(cfg)
        sim_from_config(cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
