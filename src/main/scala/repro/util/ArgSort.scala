package repro.util

/** Stable index sort on primitive arrays: the positions `0 until n` ordered
  * by a comparison on positions, with no boxing and no comparator objects
  * per element. Short runs are insertion-sorted, then merged bottom-up.
  */
object ArgSort {

  private final val Run = 16

  /** Positions `0 until n` sorted so that `before(i, j)` — a strict order
    * on positions — puts `i` first; positions that neither precedes keep
    * their relative order.
    */
  def apply(n: Int)(before: (Int, Int) => Boolean): Array[Int] = {
    var a = new Array[Int](n)
    var i = 0
    while (i < n) { a(i) = i; i += 1 }
    var lo = 0
    while (lo < n) {
      val hi = math.min(lo + Run, n)
      var k = lo + 1
      while (k < hi) {
        val x = a(k)
        var j = k - 1
        while (j >= lo && before(x, a(j))) { a(j + 1) = a(j); j -= 1 }
        a(j + 1) = x
        k += 1
      }
      lo = hi
    }
    if (n > Run) {
      var b = new Array[Int](n)
      var w = Run
      while (w < n) {
        lo = 0
        while (lo < n) {
          val mid = math.min(lo + w, n)
          val hi = math.min(lo + 2 * w, n)
          var p = lo; var q = mid; var k = lo
          while (p < mid && q < hi) {
            if (before(a(q), a(p))) { b(k) = a(q); q += 1 } else { b(k) = a(p); p += 1 }
            k += 1
          }
          System.arraycopy(a, p, b, k, mid - p)
          System.arraycopy(a, q, b, k + mid - p, hi - q)
          lo = hi
        }
        val t = a; a = b; b = t
        w *= 2
      }
    }
    a
  }
}
