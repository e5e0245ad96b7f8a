(** Simulation counters and derived metrics. *)

type stall_reason =
  | Stall_deps      (** operands in flight (scoreboard) *)
  | Stall_mem_slot  (** no free global-memory slot *)
  | Stall_acquire   (** waiting for an SRP section / OWF pair lock *)
  | Stall_regs      (** RFV: no free physical registers *)
  | Stall_barrier
  | Stall_empty     (** no runnable warp at all *)
  | Stall_mem_retry
      (** a picked warp's global access found every memory slot busy at
          the issue stage (the slot vanished after the scheduler's
          eligibility check) and was re-stalled for retry *)

(** The per-warp records of {!type-t} key on one packed int per
    (CTA, warp, lane) — lane 0 in the warp-level records — whose int order
    is the tuple's order. Read them through {!store_traces},
    {!lane_store_traces} and {!warp_instruction_counts}. *)
module Key_table : Hashtbl.S with type key = int

(** The largest ids a key packs: recording a store or a warp exit with an
    id outside [0 .. max] raises [Invalid_argument]. A warp holds at most
    62 lanes and a CTA far fewer than [max_warp] warps. *)
val max_cta : int
val max_warp : int
val max_lane : int

(** The scalar counters of {!type-t} as one immutable value: every field
    but the per-warp records and the traces ([pc_trace], [stores],
    [lane_stores], [warp_instructions], [warp_exits]), so its size does
    not grow with the grid. The fields mean what {!type-t}'s do. *)
type counters = {
  cycles : int;
  instructions : int;
  resident_warp_cycles : int;
  warp_capacity_cycles : int;
  acquire_execs : int;
  acquire_first_try : int;
  acquire_stall_cycles : int;
  release_execs : int;
  shared_oob : int;
  spill_stores : int;
  fill_loads : int;
  rf_reads : int;
  rf_writes : int;
  shared_reads : int;
  shared_writes : int;
  mem_requests : int;
  mem_latency_cycles : int;
  active_lane_cycles : int;
  predicated_lane_cycles : int;
  divergent_branches : int;
  lane_expansions : int;
  issue_candidates : int;
  stall_cycles : int array;  (** a copy, indexed by {!reason_index} *)
  ctas_retired : int;
  timed_out : bool;
}

type t = {
  mutable cycles : int;
  mutable instructions : int;
  mutable resident_warp_cycles : int;  (** Σ over cycles of resident warps *)
  mutable warp_capacity_cycles : int;  (** Σ over cycles of max residency *)
  mutable acquire_execs : int;    (** acquire instructions completed *)
  mutable acquire_first_try : int;(** completed without ever stalling *)
  mutable acquire_stall_cycles : int;
  mutable release_execs : int;
  mutable shared_oob : int;
      (** shared-memory accesses outside the CTA's allocation (wrapped) —
          includes spill-window violations and spill instructions executed
          with no spill window configured *)
  mutable spill_stores : int;
      (** RegDem: demoted-register writes redirected to the spill window *)
  mutable fill_loads : int;
      (** RegDem: demoted-register reads refilled from the spill window *)
  mutable rf_reads : int;
      (** register-file read accesses (per executed register operand) *)
  mutable rf_writes : int;
      (** register-file write accesses (per executed register def) *)
  mutable shared_reads : int;
      (** user shared-memory loads (spill fills counted separately) *)
  mutable shared_writes : int;
      (** user shared-memory stores (spill stores counted separately) *)
  mutable mem_requests : int;  (** global-memory requests issued *)
  mutable mem_latency_cycles : int;
      (** Σ over global-memory requests of issue-to-completion cycles *)
  mutable active_lane_cycles : int;
      (** Σ over issued instructions of active lanes. The warp-uniform
          model counts every issue as a full warp, so a warp-uniform
          program reports the same total in both execution models *)
  mutable predicated_lane_cycles : int;
      (** Σ over issued instructions of predicated-off lanes (warp width
          minus active lanes); always 0 in the warp-uniform model *)
  mutable divergent_branches : int;
      (** conditional branches whose active lanes split both ways (each
          pushes a reconvergence-stack entry); 0 without [--simt] *)
  mutable lane_expansions : int;
      (** [--simt] warps that left the collapsed one-row state (their
          first [%laneid] read). A work counter, not a result: it differs
          between collapsed and lane-resolved runs by design, so it stays
          out of run fingerprints and equivalence checks ({!table}) *)
  mutable issue_candidates : int;
      (** residual issue checks (memory slot, register policy) that
          actually ran, in a scheduler's pick or in the simulator's idle
          classification. Warps whose pc's issue class settles the answer
          (plain warps, and global-access warps given the SM's memory-slot
          answer) are decided off the SM's class masks and never counted,
          so under the static policy this stays 0. Compare it with
          [resident_warp_cycles], the warps a rescan of every resident
          warp on every cycle would touch. A work counter: it differs
          between fast-forward and brute-force stepping, so like
          [lane_expansions] it stays out of fingerprints and equivalence
          checks ({!table}) *)
  stall_cycles : int array;
      (** per-reason idle-slot counters, indexed by {!reason_index}; use
          {!bump_stall} / {!stall_count} rather than indexing directly *)
  mutable ctas_retired : int;
  mutable timed_out : bool;
  mutable pc_trace : int list;    (** reverse-order PC trace of warp 0 *)
  stores : (Gpu_isa.Instr.space * int * int) list ref Key_table.t;
      (** (global CTA, warp-in-CTA) → reverse-order store trace *)
  lane_stores : (Gpu_isa.Instr.space * int * int) list ref Key_table.t;
      (** (global CTA, warp-in-CTA, lane) → reverse-order lane-resolved
          store trace; only populated under [--simt] with store recording *)
  mutable warp_instructions : int array;
      (** packed (global CTA, warp-in-CTA) key and dynamic instructions
          issued, as pairs appended when a warp exits, key first; only the
          first [2 * warp_exits] slots are recorded (divergent kernels show
          non-uniform counts) *)
  mutable warp_exits : int;  (** pairs recorded in [warp_instructions] *)
}

(** All stall reasons, in a fixed order (for exhaustive per-reason
    comparisons, e.g. the fast-forward equivalence oracle). *)
val all_reasons : stall_reason list

val reason_name : stall_reason -> string

(** Dense index of a reason in {!type-t.stall_cycles} (declaration order). *)
val reason_index : stall_reason -> int

(** [create ?warps ()] — zeroed counters; [warps] (default 0) sizes the
    per-warp instruction counts for that many warp exits up front. *)
val create : ?warps:int -> unit -> t
val bump_stall : t -> stall_reason -> unit

(** [bump_stall_by t reason n] — [n] cycles' worth of [bump_stall] at once;
    the fast-forward driver uses it to account a skipped idle span. *)
val bump_stall_by : t -> stall_reason -> int -> unit

val stall_count : t -> stall_reason -> int

(** The scalar counters of a run, copied out. *)
val counters : t -> counters

(** Achieved occupancy: resident-warp integral over capacity integral. *)
val achieved_occupancy : t -> float

(** Instructions per cycle over the whole run. *)
val ipc : t -> float

(** Fraction of acquire instructions that succeeded without waiting. *)
val acquire_success_ratio : t -> float

(** Executed-PC trace of the traced warp, oldest first. *)
val trace : t -> int array

(** Per-warp store traces in issue order, keyed and sorted by
    (CTA, warp). *)
val store_traces : t -> ((int * int) * (Gpu_isa.Instr.space * int * int) list) list

val record_store : t -> cta:int -> warp:int -> Gpu_isa.Instr.space -> int -> int -> unit

(** Per-lane store traces in issue order, keyed and sorted by
    (CTA, warp, lane). Empty unless the run executed under [--simt] with
    store recording on. *)
val lane_store_traces :
  t -> ((int * int * int) * (Gpu_isa.Instr.space * int * int) list) list

val record_lane_store :
  t -> cta:int -> warp:int -> lane:int -> Gpu_isa.Instr.space -> int -> int -> unit

val record_warp_done : t -> cta:int -> warp:int -> instructions:int -> unit

(** Per-warp dynamic instruction counts, sorted by (CTA, warp); a warp
    recorded twice keeps its last count. *)
val warp_instruction_counts : t -> ((int * int) * int) list

(** One counter of {!type-counters}: its name and its getter. A work
    counter ([issue_candidates], [lane_expansions]) measures how the
    simulator reached a result, not the result: it differs between
    stepping or execution modes by design. *)
type entry = { name : string; get : counters -> int; work : bool }

(** Every field of {!type-counters}, one entry per stall reason
    (["stall[deps]"], ...) and [timed_out] as 0 or 1: the one list of a
    run's counters that {!pp}, {!first_difference} and the identity
    tests read. *)
val table : entry list

(** The first result counter of {!table} (work counters skipped) on
    which two runs differ: its name and both values. *)
val first_difference : counters -> counters -> (string * int * int) option

(** Every entry of {!table}, the work counters on a line of their own,
    then the derived ratios: IPC, achieved occupancy, active-lane
    occupancy and mean memory latency. *)
val pp : Format.formatter -> t -> unit
