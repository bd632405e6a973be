"""Record the CLI text the benchmark compares against.

Run once, from the root of a checkout of the commit whose output is the
contract, with ``PYTHONPATH=src python3 perfbench/record_reference.py``.
It writes ``perfbench/reference/cli_text.json``: the text report of the
census, of each catalog call and of ``lattice``.
"""

import json

from enriques import cli

from workloads import CATALOG_ARGVS, CENSUS_ARGV, LATTICE_ARGV, REFERENCE


def main():
    records = []
    for argv in [CENSUS_ARGV, *CATALOG_ARGVS, LATTICE_ARGV]:
        report, _ = cli.run(argv)
        records.append({"argv": argv, "text": report.to_text()})
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
