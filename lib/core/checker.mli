(** Static soundness checker for instrumented programs.

    Abstract interpretation over the instruction-level CFG of the warp's
    acquire state (held / free), honouring idempotent acquire/release
    semantics. A transformed program is sound when:

    - every instruction referencing a register with index ≥ [|Bs|] is
      executed with the extended set held on {e every} path;
    - no instruction references a register at or beyond [|Bs| + |Es|];
    - whenever the set may be free after an instruction, no register with
      index ≥ [|Bs|] is live there (its physical storage is gone).

    {!Transform.apply} runs this checker and refuses to emit unsound
    programs; the simulator additionally enforces the same rules
    dynamically in verification mode. *)

type violation = {
  pc : int;
  message : string;
}

(** [check ~bs ~es prog] returns all violations ([] = sound). The
    free-state rule reads [prog]'s liveness with divergence widening. *)
val check : bs:int -> es:int -> Gpu_isa.Program.t -> violation list

(** {!check} of [facts]' program. *)
val check_facts : bs:int -> es:int -> Gpu_analysis.Facts.t -> violation list

val pp_violation : Format.formatter -> violation -> unit

(** [acquire_spans_barrier facts] holds when some [bar.sync] may execute
    with the extended set held (acquire state Held or Top on entry).
    Spanning a barrier is sound for storage but restricts forward
    progress: a warp parked at the barrier keeps its SRP section while
    the warps it waits for may need one. Under [Srp_paired] — one
    section per warp pair, both partners executing the same acquire —
    it is a certain deadlock, so {!Technique.prepare} refuses the
    paired policy for such programs. *)
val acquire_spans_barrier : Gpu_analysis.Facts.t -> bool

(** Per-warp store traces in issue order, keyed and sorted by
    (CTA, warp) — the shape produced by [Gpu_sim.Stats.store_traces]. *)
type store_trace = ((int * int) * (Gpu_isa.Instr.space * int * int) list) list

(** [diff_store_traces ~expected ~actual] compares two runs' memory
    effects and describes the first divergence ([None] = identical).
    Register-state equality at exit is insufficient for semantic
    equivalence — a transformed kernel can clobber a register after its
    last store yet still have written the wrong values — so the
    differential oracle and the transform tests compare what each warp
    actually wrote, in order. *)
val diff_store_traces :
  expected:store_trace -> actual:store_trace -> string option

(** Lane-resolved store traces, keyed and sorted by (CTA, warp, lane) —
    the shape produced by [Gpu_sim.Stats.lane_store_traces] under SIMT
    execution. *)
type lane_store_trace =
  ((int * int * int) * (Gpu_isa.Instr.space * int * int) list) list

(** Lane-resolved {!diff_store_traces}: strictly stronger — a fault that
    perturbs only some lanes (a corrupted active mask, a predication bug)
    shows up here even when the warp-level trace, which records the lowest
    active lane, is untouched. *)
val diff_lane_store_traces :
  expected:lane_store_trace -> actual:lane_store_trace -> string option
