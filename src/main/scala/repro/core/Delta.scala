package repro.core

/** The duration threshold `δ`: its validation and the `t ± δ` bounds of
  * every range scan and Lemma 2 deletion. The bounds saturate, so
  * `δ = Long.MaxValue` means "no duration constraint" instead of wrapping
  * into a negative bound that silently drops wedges.
  */
object Delta {

  /** @throws IllegalArgumentException naming `delta` when it is negative */
  def check(delta: Long): Unit = require(delta >= 0, s"delta must be >= 0, got $delta")

  /** `t + delta` for `delta >= 0`, saturating at `Long.MaxValue`. */
  @inline def plus(t: Long, delta: Long): Long = {
    val r = t + delta
    if (r < t) Long.MaxValue else r
  }

  /** `t - delta` for `delta >= 0`, saturating at `Long.MinValue`. */
  @inline def minus(t: Long, delta: Long): Long = {
    val r = t - delta
    if (r > t) Long.MinValue else r
  }
}
