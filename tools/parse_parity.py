"""Compare two versions of the parser and the engine on the same 4,173 inputs.

    python3 tools/parse_parity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are `src` directories, each holding a `cddlint`
package. The inputs are made once, by this process:

* every `.java` file under `tests/fixtures` (26);
* `Corpus(seed).tree(700)` for seeds 5, 11 and 29, annotated as the
  `reconcile_fix` workload of `cddbench/run.py` annotates it (a seeded half of
  the files stale);
* `_mutants(2000, seed=7)` from `tests/test_parser.py`: fixture files with
  tokens deleted or copied in;
* `modern`: the hand-scored `TYPE_HEADER_CASES` of
  `tests/test_type_headers.py` (12): records, `@interface` and sealed types,
  initializers, compact constructors, local, anonymous and enum-constant
  bodies and the names of the types in them, and switch expressions, `->`
  rules and `yield`;
* `commented`: each fixture with comments between its tokens (26), made by
  `commented`: a `/* … */` block and a `// …` line before each line that
  starts with `if`, `for`, `while`, `return`, `try` or `switch`, and a
  `// …` after each `;` that ends a line; none holds `@ICP`;
* `large`: each seed's 700 annotated files joined with LF into one input of
  about 288 KB, in LF, CR LF and lone-CR form.

Each side parses all of them in one child process of its own, with a hash
seed of its own, so `parse_parity.py src src` checks that a parse and an
analysis depend on no hash order. An input's result is the `repr` of
`parse_unit` of its UTF-8 bytes, or the diagnostics of the `ParseError` it
raises. An input that parses is also analysed under eight rule sets: the
default rules, the corpus' `config_document()`, and two variants of it that
turn a category off and change costs (`CATEGORY_VARIANTS`), each with
`count_lambdas` off and on; its analysis under a rule set is the `repr` of
the `analyze_unit` result. The tool prints the number of inputs, the name
of each input whose result differs and of each whose analysis differs, the
analyses that differ per rule set, and per group the whole-file failures,
the `_Fail` exceptions each side raised (`_Fail` is the parser's internal
signal of a fault, caught where a statement or member recovers, or where
the parser reads ahead) and the analyses that differ. It exits 1 if any
result or analysis differs, or if the change side raises any `_Fail` in a
group other than `mutants`, the one group that is not Java: the parser
reads ahead only where Java is ambiguous, a local variable's head and a
cast's type, and such a read fails only on input that is not Java. Else it
exits 0.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE_SEEDS = (5, 11, 29)
TREE_FILES = 700  # FIX_FILES of cddbench/run.py
STALE_SHARE = 0.5
# `categories` of the corpus config in two more rule sets, so that what the
# engine applies per category (`enabled`, `cost`) is compared too
CATEGORY_VARIANTS = {
    "corpus, costs": {"exception": {"enabled": False}, "branch": {"cost": 2},
                      "external_coupling": {"cost": 1}},
    "corpus, no internal": {"internal_coupling": {"enabled": False},
                            "condition": {"cost": 0.5}},
}

# a line that starts one of the statements `commented` puts comments before
_STATEMENT_LINE = re.compile(r"^([ \t]*)(?=(?:if|for|while|return|try|switch)\b)", re.M)


def commented(text: str, marker: str = "") -> str:
    """`text` with a `/* … */` block and a `// …` line, then the line
    `marker` if given, before each line that `_STATEMENT_LINE` matches, and
    a `// …` after each `;` that ends a line. A fixture holds no text block,
    so no `;` at a line's end is in a literal."""
    text = re.sub(r";([ \t]*)$", r";\1 // end of statement", text, flags=re.M)
    marker_line = rf"\1{marker}\n" if marker else ""
    return _STATEMENT_LINE.sub(
        rf"\1/* a block comment\n\1   over two lines */\n\1// a line comment\n{marker_line}\1",
        text)


# Run in each side's child: reads {"configs": {label: document or None for
# the default rules}, "inputs": [[group, name, text], ...]} on stdin, writes
# {"results": {name: [failed, digest, {rule set: analysis digest} or None]},
# "fails": {group: count}} on stdout.
CHILD = r"""
import hashlib, json, sys
from collections import Counter
from cddlint.engine import analyze_unit
from cddlint.rules import default_rules, load_rules
from cddlint.syntax import ParseError, parse_unit
from cddlint.syntax import parser

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()

fails, group = Counter(), None
init = parser._Fail.__init__
def counting_init(self, *args):
    fails[group] += 1
    init(self, *args)
parser._Fail.__init__ = counting_init

request = json.load(sys.stdin)
rule_sets = {label + (", lambdas" if lambdas else ""): rules._replace(count_lambdas=lambdas)
             for label, document in request["configs"].items()
             for rules in [default_rules() if document is None else load_rules(document)]
             for lambdas in (False, True)}
results = {}
for group, name, text in request["inputs"]:
    try:
        unit = parse_unit(text.encode())
    except ParseError as exc:
        results[name] = [True, digest("ParseError " + repr(exc.diagnostics)), None]
        continue
    analyses = {label: digest(repr(analyze_unit(unit, rules)))
                for label, rules in rule_sets.items()}
    results[name] = [False, digest(repr(unit)), analyses]
json.dump({"results": results, "fails": fails}, sys.stdout)
"""


def make_inputs(change_src: Path) -> list[tuple[str, str, str]]:
    """(group, name, text) for every input, in a fixed order."""
    sys.path[:0] = [str(change_src), str(ROOT), str(ROOT / "tests")]
    from cddbench.corpus import Corpus
    from test_parser import _mutants
    from test_type_headers import TYPE_HEADER_CASES

    fixtures = ROOT / "tests" / "fixtures"
    inputs = [("fixtures", f"fixtures/{p.relative_to(fixtures)}", p.read_text("utf-8"))
              for p in sorted(fixtures.rglob("*.java"))]
    large = []
    for seed in TREE_SEEDS:
        corpus = Corpus(seed)
        stale = set(corpus.rng.sample(range(TREE_FILES), round(STALE_SHARE * TREE_FILES)))
        tree = [(f"tree{seed}", f"tree{seed}/{f.path}", corpus.annotate(f, i in stale).text)
                for i, f in enumerate(corpus.tree(TREE_FILES))]
        inputs += tree
        joined = "\n".join(text for _, _, text in tree)
        large += [("large", f"large/tree{seed}-{form}", joined.replace("\n", ending))
                  for form, ending in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r"))]
    inputs += [("mutants", f"mutant/{n}", data.decode())
               for n, data in enumerate(_mutants(2000, seed=7))]
    inputs += [("modern", f"modern/{name}", source)
               for name, (source, _) in TYPE_HEADER_CASES.items()]
    inputs += [("commented", f"commented/{name[len('fixtures/'):]}", commented(text))
               for group, name, text in inputs if group == "fixtures"]
    return inputs + large


def run_side(src: Path, payload: bytes, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", CHILD], input=payload, env=env,
                          capture_output=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{src}: the parse failed:\n{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.strip().split("\n\n")[1])
    parent_src, change_src = (Path(a).resolve() for a in argv)
    inputs = make_inputs(change_src)
    from cddbench.corpus import config_document

    configs = {"default": None, "corpus": config_document()}
    for label, categories in CATEGORY_VARIANTS.items():
        configs[label] = json.dumps({**json.loads(config_document()),
                                     "categories": categories})
    payload = json.dumps({"configs": configs, "inputs": inputs}).encode()
    parent, change = run_side(parent_src, payload, "1"), run_side(change_src, payload, "2")
    differ = [name for _, name, _ in inputs
              if parent["results"][name][:2] != change["results"][name][:2]]
    analyses_differ = [name for _, name, _ in inputs
                       if parent["results"][name][2] != change["results"][name][2]]
    print(f"inputs: {len(inputs)}")
    print(f"differ: {len(differ)}")
    for name in differ:
        print(f"  {name}")
    print(f"analyses differ: {len(analyses_differ)}")
    for name in analyses_differ:
        print(f"  {name}")
    labels = list(next(r[2] for r in change["results"].values() if r[2] is not None))
    print(f"{'rule set':28} {'analyses differ':>16}")
    for label in labels:
        changed = sum(parent["results"][name][2][label] != change["results"][name][2][label]
                      for name in analyses_differ
                      if parent["results"][name][2] and change["results"][name][2])
        print(f"{label:28} {changed:>16}")
    groups = list(dict.fromkeys(group for group, _, _ in inputs))
    print(f"{'group':10} {'failures: parent':>17} {'change':>7} {'_Fail: parent':>14} "
          f"{'change':>7} {'analyses differ':>16}")
    for group in groups:
        names = [name for g, name, _ in inputs if g == group]
        failed = [sum(side["results"][n][0] for n in names) for side in (parent, change)]
        raised = [side["fails"].get(group, 0) for side in (parent, change)]
        changed = len(set(names).intersection(analyses_differ))
        print(f"{group:10} {failed[0]:>17} {failed[1]:>7} {raised[0]:>14} {raised[1]:>7} "
              f"{changed:>16}")
    raised = sum(n for group, n in change["fails"].items() if group != "mutants")
    if raised:
        print(f"the change side raised {raised} _Fail outside mutants")
    return 1 if differ or analyses_differ or raised else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
