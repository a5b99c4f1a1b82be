package repro.jobs

import repro.exp._
import repro.kge._

/** Hyperparameter calibration harness: run one or more models on a cached
  * dataset with overrides from key=value args, e.g.
  *
  *   runMain repro.jobs.CalibrateJob data=img models=TransE,TuckER \
  *     epochs=100 lr=0.01 margin=1.0 neg=2 hard=0.25
  *
  * Requires REPRO_CACHE=1 to reuse the collected dataset across runs.
  */
object CalibrateJob {
  def main(args: Array[String]): Unit = {
    val kv = args.filter(_.contains("=")).map { a =>
      val Array(k, v) = a.split("=", 2); k -> v
    }.toMap
    val spark = JobSession.spark("openbg-calibrate")
    val synth = JobSession.cfg(args)
    lazy val kg = BenchWorld.buildKg(spark, synth)._2
    val dataKey = kv.getOrElse("data", "img")
    val benchCfg = dataKey match {
      case "img" => BenchWorld.imgConfig
      case "b500" => BenchWorld.b500Config
      case "b500L" => BenchWorld.b500LConfig
    }
    val data = DatasetCache.getOrBuild(synth, benchCfg) {
      Tables.datasetFor(spark, kg,
        repro.benchmark.BenchmarkBuilder.build(spark, kg, benchCfg).cache())
    }
    Console.err.println(s"[Calibrate] data=$dataKey nEnt=${data.nEnt} nRel=${data.nRel} " +
      s"nTrain=${data.nTrain} nTest=${data.testH.length}")
    val models = kv.getOrElse("models", "TransE").split(",").toSeq
    models.foreach { name =>
      if (name == "FreqOracle") {
        val m = Evaluator.evaluate(spark, new FreqBaseline(data), data)
        println(f"[Calibrate] ${m.row(name)}")
      } else if (name == "TextProbe") {
        // Untrained pure text-overlap scorer + example rankings.
        val probe = new KgeModel {
          val name = "TextProbe"; val nEnt = data.nEnt; val nRel = data.nRel
          def score(h: Int, r: Int, t: Int): Double = {
            val a = data.entText(h); val b = data.entText(t)
            var s = 0.0; var i = 0
            while (i < a.length) { s += a(i) * b(i); i += 1 }
            s
          }
          def update(h: Int, r: Int, t: Int, h2: Int, t2: Int, lr: Double, m: Double) = 0.0
        }
        val m = Evaluator.evaluate(spark, probe, data)
        println(f"[Calibrate] ${m.row(name)}")
        (0 until 5).foreach { i =>
          val (h, r, t) = (data.testH(i), data.testR(i), data.testT(i))
          val scores = probe.scoreTails(h, r)
          val top = scores.zipWithIndex.sortBy(-_._1).take(5)
            .map { case (s, e) => f"${data.entIds(e)}%s=${s}%.3f" }.mkString(", ")
          val rank = Evaluator.rankOf(probe, data, h, r, t)
          println(s"[TextProbe] h=${data.entIds(h)} r=${data.relIds(r)} " +
            s"gold=${data.entIds(t)} goldScore=${scores(t)} rank=$rank top=[$top]")
        }
      } else calibrated(spark, data, name, kv)
    }
    spark.stop()
  }

  private def calibrated(spark: org.apache.spark.sql.SparkSession, data: KgeDataset,
                         name: String, kv: Map[String, String]): Unit = {
    {
      val (model, cfg0) = LinkPred.makeModel(name, data,
        kv.get("dim").map(_.toInt).getOrElse(32))
      val cfg = cfg0.copy(
        epochs = kv.get("epochs").map(_.toInt).getOrElse(cfg0.epochs),
        lr = kv.get("lr").map(_.toDouble).getOrElse(cfg0.lr),
        margin = kv.get("margin").map(_.toDouble).getOrElse(cfg0.margin),
        negPerPos = kv.get("neg").map(_.toInt).getOrElse(cfg0.negPerPos),
        hardNegFrac = kv.get("hard").map(_.toDouble).getOrElse(cfg0.hardNegFrac),
        tailCorruptFrac = kv.get("tailfrac").map(_.toDouble).getOrElse(cfg0.tailCorruptFrac),
        verbose = kv.get("verbose").exists(_.toBoolean))
      val t0 = System.nanoTime()
      Trainer.train(model, data, cfg)
      val secs = (System.nanoTime() - t0) / 1e9
      val m = Evaluator.evaluate(spark, model, data)
      println(f"[Calibrate] ${m.row(name)}  cfg=$cfg (${secs}%.1fs)")
      model match {
        case tm: TextKgeBase =>
          val prodIdx = data.entIds.indices.filter(i => data.entIds(i).startsWith("prod:"))
          val otherIdx = data.entIds.indices.filterNot(i => data.entIds(i).startsWith("prod:"))
          def mean(xs: Seq[Int]) = xs.map(tm.bias(_)).sum / xs.size
          println(f"[BiasDebug] prodBias=${mean(prodIdx)}%.3f otherBias=${mean(otherIdx)}%.3f")
          val (h, r, t) = (data.testH(0), data.testR(0), data.testT(0))
          val sc = tm.scoreTails(h, r)
          val top = sc.zipWithIndex.sortBy(-_._1).take(8)
            .map { case (v, e) => f"${data.entIds(e)}=${v}%.2f" }.mkString(", ")
          println(s"[BiasDebug] h=${data.entIds(h)} r=${data.relIds(r)} gold=${data.entIds(t)} " +
            f"goldScore=${sc(t)}%.2f rank=${Evaluator.rankOf(tm, data, h, r, t)} top=[$top]")
        case _ =>
      }
    }
  }
}
