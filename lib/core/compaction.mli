(** Architected register index compaction (§III-A4).

    Keeps live values below the [|Bs|] boundary outside acquire regions so
    the two-segment [Y = X + B] mapping stays valid. Two cooperating
    passes:

    - {!permute}: a global bijective renaming ranked by low-pressure
      residency — a register that is ever live at an instruction whose
      pressure fits the base set {e must} receive a low index (otherwise
      that instruction would spuriously require the extended set); only
      registers exclusively live at high-pressure points may sit above
      [|Bs|]. A bijection preserves semantics with zero inserted
      instructions (it is this library's analogue of declaration
      reordering, applied soundly and pressure-aware).
    - {!mov_compact}: the paper's per-release-point mechanism — when a
      high-index register stays live after pressure has dropped to
      [≤ |Bs|], move it into a free low slot with a [Mov] and rename the
      remaining live range. Applied only when the conservative safety
      conditions hold (the range does not extend backwards and the target
      slot is untouched from the move point on); regions that cannot be
      compacted safely simply remain in the acquire state, which is
      correct, merely less profitable. *)

(** [pressure_ranking prog liveness ~bs] maps old register index → new
    index. The [n_regs - bs] registers placed above the base-set boundary
    are chosen greedily to minimise the number of {e additional}
    low-pressure instructions dragged into the acquire state: instructions
    whose pressure already exceeds [bs] are in it regardless, so a register
    whose live range hides inside them is free to exile. Within each side
    of the boundary, longer-lived registers get lower indices. Applied to
    the program and its liveness alone, it computes their residency once
    for a sweep over several [bs]. *)
val pressure_ranking :
  Gpu_isa.Program.t -> Gpu_analysis.Liveness.t -> bs:int -> int array

(** Apply a bijective renaming. @raise Invalid_argument if [perm] is not
    a permutation of [0 .. n_regs-1]. *)
val permute : Gpu_isa.Program.t -> int array -> Gpu_isa.Program.t

(** [mov_compact ~bs facts] inserts compaction [Mov]s into [facts]'
    program; returns the facts of the new program and the number of moves
    inserted. Each round reads the widened liveness of its input; the
    returned facts are the last round's input, so a caller reading them
    reuses that analysis. *)
val mov_compact :
  bs:int -> Gpu_analysis.Facts.t -> Gpu_analysis.Facts.t * int
