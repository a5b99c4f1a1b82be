package repro.exp

import java.io._
import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import repro.benchmark.BenchConfig
import repro.kge.KgeDataset
import repro.synth.SynthConfig

/** Optional on-disk cache of collected KGE datasets.
  * Enabled with REPRO_CACHE=1 — used to iterate on model hyperparameters
  * without re-running the KG construction pipeline each time. Off by
  * default so jobs and benches always exercise the full dataflow.
  *
  * An entry is keyed by a hash of the world config, the extraction config
  * (which carries the benchmark name) and `FormatVersion`, so a changed
  * config never serves a stale dataset.
  */
object DatasetCache {

  /** Bump whenever the content of a collected dataset changes for the
    * same configs (e.g. its triple order). 2: train/dev/test sorted by
    * (h, r, t) index.
    */
  val FormatVersion = 2

  private def dir = new File(sys.env.getOrElse("REPRO_CACHE_DIR", "/tmp/repro-cache"))

  private def fileName(synth: SynthConfig, bench: BenchConfig): String = {
    val digest = MessageDigest.getInstance("SHA-256")
      .digest(s"$FormatVersion|$synth|$bench".getBytes(UTF_8))
    s"${bench.name}-${digest.take(8).map(b => f"$b%02x").mkString}.bin"
  }

  def getOrBuild(synth: SynthConfig, bench: BenchConfig)(build: => KgeDataset): KgeDataset = {
    if (!sys.env.contains("REPRO_CACHE")) return build
    dir.mkdirs()
    val f = new File(dir, fileName(synth, bench))
    if (f.exists()) {
      val in = new ObjectInputStream(new BufferedInputStream(new FileInputStream(f)))
      try in.readObject().asInstanceOf[KgeDataset] finally in.close()
    } else {
      val d = build
      val out = new ObjectOutputStream(new BufferedOutputStream(new FileOutputStream(f)))
      try { out.writeObject(d) } finally out.close()
      d
    }
  }
}
