"""The package surface: every exported name resolves."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import text2triple
from text2triple.scoring import ErrorCategory

LIBRARY_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(text2triple.__path__)
    if info.name not in ("__main__", "cli")
)


def test_library_modules_found():
    assert LIBRARY_MODULES == [
        "corpus", "embeddings", "model", "numerics", "scoring", "synthetic", "vocab",
    ]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"text2triple.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_resolve():
    missing = [attr for attr in text2triple.__all__ if not hasattr(text2triple, attr)]
    assert missing == []
    assert len(set(text2triple.__all__)) == len(text2triple.__all__)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # importing the package pulls in.
    code = ("import sys, text2triple, text2triple.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SRC = Path(text2triple.__file__).parent


def _file_access(call: ast.Call):
    """'text' or 'bytes' if the call reads a file, the callee's name for other
    loaders, 'write' if it writes or replaces a file, None for anything else."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("read_text", "read_bytes"):
        return name.removeprefix("read_")
    if name in ("load", "loadtxt", "genfromtxt", "fromfile"):
        return name
    if name in ("write_text", "write_bytes", "save", "savez", "savetxt", "tofile"):
        return "write"
    if (name in ("replace", "rename") and isinstance(func, ast.Attribute)
            and getattr(func.value, "id", None) == "os"):
        return "write"
    if name != "open":
        return None
    # open(path, mode) or path.open(mode)
    pos = call.args[1:] if isinstance(func, ast.Name) else call.args
    mode = next((k.value for k in call.keywords if k.arg == "mode"), pos[0] if pos else None)
    mode = mode.value if isinstance(mode, ast.Constant) else "r"
    if set(mode) & set("wax+"):
        return "write"
    return "bytes" if "b" in mode else "text"


def _file_accesses(node, module, function=None):
    """(module.function, kind) for each call under node that reads or writes a file."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _file_accesses(child, module, child.name)
            continue
        kind = _file_access(child) if isinstance(child, ast.Call) else None
        if kind:
            yield f"{module}.{function}", kind
        yield from _file_accesses(child, module, function)


def _src_file_accesses():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_file_accesses(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    return found


def test_one_text_reader_and_one_byte_reader():
    # Input policy (UTF-8, BOM, line breaks, the error for a bad byte) lives
    # in vocab.read_lines; checkpoints are the one binary format.
    reads = {access for access in _src_file_accesses() if access[1] != "write"}
    assert sorted(reads) == [("model.load_checkpoint", "bytes"), ("vocab.read_lines", "text")]


def test_one_file_writer():
    # Output policy (UTF-8, temporaries, all files or none) lives in
    # vocab.write_files.
    writers = {where for where, kind in _src_file_accesses() if kind == "write"}
    assert writers == {"vocab.write_files"}


def test_one_utf8_error_message():
    texts = [path.read_text(encoding="utf-8") for path in SRC.glob("*.py")]
    assert sum(text.count("not valid UTF-8") for text in texts) == 1


def _callers(tree, names):
    """(enclosing function, callee) for each call in tree to one of names,
    called bare or as an attribute."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    yield fn.name, name


def test_one_decoder_readout():
    # Attention, the output layer and the step masks are stated once, in
    # model._readout; training, greedy, beam and decode_step all go through it.
    tree = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    callers = set(_callers(tree, {"_attention", "_masked_log_softmax"}))
    assert callers == {("_readout", "_attention"), ("_readout", "_masked_log_softmax")}


def _top_level_name(node):
    """The name a module-level statement defines or assigns, else None."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


def test_one_error_classifier():
    # An example's error category is picked once, in scoring._category, with
    # the single-slot categories in the table it reads; error_taxonomy and
    # the renderers only count or list the enum.
    tree = ast.parse((SRC / "scoring.py").read_text(encoding="utf-8"))
    namers = {_top_level_name(top) for top in tree.body for node in ast.walk(top)
              if isinstance(node, ast.Attribute) and getattr(node.value, "id", None)
              == "ErrorCategory" and node.attr in ErrorCategory.__members__}
    assert namers == {"_category", "_WRONG_SLOT"}


def test_one_decode_loop():
    # Greedy and beam decoding, batched or not, are one loop, model._decode;
    # decode_step is the only other code that steps the decoder LSTM.
    tree = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    callers = set(_callers(tree, {"lstm_cell"}))
    assert callers == {("_decode", "lstm_cell"), ("decode_step", "lstm_cell")}


def test_one_way_into_the_model_and_one_way_out():
    # Sentences become ids, with their UNK counts and one truncation warning
    # per call, only in model._sources; a decoded row becomes a DecodeResult
    # only in model._result.
    tree = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    callers = set(_callers(tree, {"encode_sentence", "DecodeResult"}))
    assert callers == {("_sources", "encode_sentence"), ("_result", "DecodeResult")}


def test_ablation_letters_stated_once():
    # The A/W/G letters name ModelConfig's flag fields in ModelConfig.FLAGS
    # only; flag_label, the CLI's flag parser and its checks read them there.
    letters = {(path.stem, node.value) for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Constant) and node.value in ("A", "W", "G")}
    assert letters == {("model", "A"), ("model", "W"), ("model", "G")}


def test_one_lstm_backward():
    # Every LSTM is differentiated by the sequence scan's exact backward;
    # no per-step cell backward sits beside it.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    backwards = {f"{module}.{node.name}" for module, tree in trees.items()
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name.endswith("_backward")}
    assert backwards == {"numerics.lstm_sequence_backward"}
    callers = {(f"{module}.{fn}", callee) for module, tree in trees.items()
               for fn, callee in _callers(tree, {"lstm_sequence_backward"})}
    assert callers == {("model._loss_and_grads", "lstm_sequence_backward")}


def _top_level_imports(tree):
    """Each name a module's top-level imports bind (__future__ aside)."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_unused_imports(module):
    # What a deletion leaves behind: an import nothing reads any more.
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _top_level_imports(tree)
              if name not in used and name not in _exports(tree)]
    assert unused == []


ROOT = Path(__file__).resolve().parent.parent


def _public_defs(tree):
    """(qualified name, name) for each public module-level function and class,
    and for each public method of such a class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, functions) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name


def test_library_code_has_a_caller():
    # Library code is what a command, the benchmark, a demo or another module
    # reaches; a name that only tests reach is to be deleted. A reference is a
    # Name or an Attribute node, so neither a string (__all__ included) nor
    # the name's own def counts.
    referenced = set()
    for path in sorted(p for d in ("src", "perfbench", "demos") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreached = [f"{path.stem}.{qualified}"
                 for path in sorted((ROOT / "src" / "text2triple").glob("*.py"))
                 for qualified, name in _public_defs(ast.parse(path.read_text(encoding="utf-8")))
                 if name not in referenced]
    assert unreached == []
