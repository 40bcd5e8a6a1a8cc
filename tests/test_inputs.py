"""Seeded random edits of the files `tetravol all --degree 13` writes.

Each edit is a one-character substitution, insertion or deletion over a
fixed alphabet, a swap of two lines or a duplicated line.  An edited node
file goes through `tetravol certify`, an edited report through
`parse_report`, and each must end in one of two ways: a clean refusal, or
the result of the input as read (a node file byte for byte what
`NodeSet.write` writes for the nodes `NodeSet.read` returns, and the
report `certify` writes for them; the unedited certificate, outside its
`meta` lines).  Any other exception fails the test.  The moment file is not edited
here: `certify` still trusts it beyond its own checks (ROADMAP item 1).
"""

import dataclasses
import random

import pytest

from tetravol.certificate import parse_report
from tetravol.cli import EXIT_ERROR, EXIT_NOT_CERTIFIED, EXIT_OK, main
from tetravol.majorant import NodeSet

#: what an edit inserts or substitutes: digits and the separators of each
#: format, tab, newline, an ARABIC-INDIC DIGIT THREE and a byte-order mark
ALPHABET = "0123456789/#-_.:e x\t\n\u0663\ufeff"


def edit(text: str, rng: random.Random) -> str:
    """`text` with one seeded edit."""
    kind = rng.randrange(5)
    if kind < 3:
        i = rng.randrange(len(text))
        c = rng.choice(ALPHABET)
        return (text[:i] + c + text[i + 1:], text[:i] + c + text[i:],
                text[:i] + text[i + 1:])[kind]
    lines = text.splitlines(keepends=True)
    if kind == 3:
        a, b = rng.sample(range(len(lines)), 2)
        lines[a], lines[b] = lines[b], lines[a]
    else:
        j = rng.randrange(len(lines))
        lines.insert(j, lines[j])
    return "".join(lines)


@pytest.fixture(scope="module")
def run13(tmp_path_factory):
    """The work directory of `tetravol all --degree 13`."""
    workdir = tmp_path_factory.mktemp("inputs") / "run"
    assert main(["all", "--degree", "13", "--workdir", str(workdir)]) == EXIT_OK
    return workdir


def test_an_edited_node_file_is_refused_or_certified_as_read(run13, tmp_path, capsys):
    moments = str(run13 / "moments.tsv")
    text = (run13 / "nodes.txt").read_text()
    nodes, report = tmp_path / "nodes.txt", tmp_path / "r.txt"
    read_as, again = tmp_path / "read-as.txt", tmp_path / "again.txt"
    rng = random.Random(20)
    capsys.readouterr()
    outcomes = {EXIT_ERROR: 0, EXIT_OK: 0, EXIT_NOT_CERTIFIED: 0}
    for _ in range(250):
        report.unlink(missing_ok=True)
        nodes.write_text(edit(text, rng), newline="")
        code = main(["certify", "--nodes", str(nodes), "--moments", moments,
                     "--report", str(report)])
        err = capsys.readouterr().err
        outcomes[code] += 1
        if code == EXIT_ERROR:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not report.exists()
            continue
        assert err == ""
        NodeSet.read(nodes).write(read_as)
        # the one node format: a file that reads is the file `write` writes
        assert nodes.read_bytes() == read_as.read_bytes()
        assert main(["certify", "--nodes", str(read_as), "--moments", moments,
                     "--report", str(again)]) == code
        capsys.readouterr()
        assert report.read_bytes() == again.read_bytes(), nodes.read_text()
    # the fixed seed reaches both ends
    assert outcomes[EXIT_ERROR] and outcomes[EXIT_OK] + outcomes[EXIT_NOT_CERTIFIED]


def test_an_edited_report_is_refused_or_reads_back_unchanged(run13):
    text = (run13 / "certificate.txt").read_text()
    unedited = dataclasses.replace(parse_report(text), metadata={})
    rng = random.Random(21)
    refused = 0
    for _ in range(250):
        try:
            cert = parse_report(edit(text, rng))
        except ValueError:
            refused += 1
            continue
        assert dataclasses.replace(cert, metadata={}) == unedited
    assert 0 < refused < 250
