"""Build file of the benchmark.

Compiles the program (src/main/scala and jobs/) together with the harness
(perfbench/src) using the Scala compiler of the Spark distribution, so no
dependency resolution and no sbt are needed. Output goes under
.bench_build/perfbench/ in the checkout, one directory per source stamp;
an unchanged tree is not recompiled.

    python3 perfbench/build.py      # build, print the classes directory
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
PROGRAM_SOURCES = ("src/main/scala", "jobs")


class BuildError(Exception):
    pass


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    return str(exe) if exe and exe.exists() else "java"


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return Path(home) / "jars"


def sources() -> list:
    files = []
    for rel in PROGRAM_SOURCES:
        d = ROOT / rel
        if not d.is_dir():
            raise BuildError(f"program sources missing: {rel}/ (run from a full checkout)")
        files += sorted(d.rglob("*.scala"))
    files += sorted((HERE / "src").rglob("*.scala"))
    return files


def build() -> tuple:
    """Compile if needed; return (classes directory, source stamp)."""
    jars = spark_jars()
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    h.update("\n".join(sorted(p.name for p in jars.glob("*.jar"))).encode())
    stamp = h.hexdigest()[:16]
    classes = OUT / "classes" / stamp
    if (classes / ".done").exists():
        return classes, stamp

    tmp = OUT / "classes" / f"{stamp}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [java(), "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", f"-Djava.io.tmpdir={tmp}",
           "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(f) for f in files]
    print(f"[perfbench] compiling {len(files)} sources", file=sys.stderr, flush=True)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("compilation failed")
    (tmp / ".done").touch()
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    for old in (OUT / "classes").iterdir():
        if old != classes:
            shutil.rmtree(old, ignore_errors=True)
    return classes, stamp


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        sys.exit(f"[perfbench] build failed: {e}")
