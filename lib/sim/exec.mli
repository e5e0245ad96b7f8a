(** Functional (value-level) execution of one instruction.

    Timing, policy enforcement and status transitions live in {!Sm}; this
    module only computes values and memory effects, which makes the
    semantics unit-testable in isolation and keeps transforms verifiable:
    a RegMutex-transformed program must produce the same {!outcome}
    sequence and stores as the original.

    A context is built once per warp slot and reused across launches (the
    SM rebinds the mutable [ctaid]/[shared] fields when a new CTA lands in
    the slot), so the per-issue path allocates nothing: memory dispatch is
    direct on the context fields rather than through per-warp closures. *)

type ctx = {
  regs : int array;    (** the warp's register-file row (shared with the SM) *)
  params : int array;
  tid : int;           (** linear thread id of the warp's first lane *)
  mutable ctaid : int; (** rebound at each CTA launch into the slot *)
  ntid : int;          (** threads per CTA *)
  nctaid : int;        (** CTAs in the grid *)
  warp_id : int;       (** warp index within the CTA (fixed per slot) *)
  mutable shared : int array;  (** the resident CTA's shared memory *)
  spill_words : int;
      (** RegDem spill window reserved at the top of [shared]; 0 when the
          policy demotes nothing. User [Shared] accesses wrap within
          [length shared - spill_words]; [Spill] accesses are relative to
          the window base and bump [stats.shared_oob] when outside it *)
  memory : Memory.t;
  stats : Stats.t;     (** shared-memory wrap counting, store recording *)
  record_stores : bool;
  lanes : int;         (** warp width under [--simt]; 0 in the warp-uniform
                           model (the per-lane entry points are never called) *)
  n_regs : int;        (** architected registers per lane (row stride) *)
  mutable lane_regs : int array;
      (** lane-major per-lane register file for this slot,
          [lanes * n_regs] words ([lane * n_regs + r]); [[||]] in the
          warp-uniform model and until the slot first runs expanded
          (the SM binds it then) *)
}

type outcome =
  | Next         (** fall through to [pc + 1] *)
  | Goto of int  (** branch taken *)
  | Stop         (** [Exit] *)
  | Sync         (** [Bar] — CTA barrier *)
  | Acq          (** [Acquire] — policy handled by the SM *)
  | Rel          (** [Release] *)

(** Per-lane control outcome: either every active lane agrees (including
    conditional branches whose condition is warp-uniform in practice), or
    the branch splits the active mask — reconvergence-stack handling lives
    in {!Sm}. *)
type lane_outcome =
  | L_uniform of outcome
  | L_diverge of { taken : int; tgt : int }
      (** [taken] is the non-empty, proper sub-mask of active lanes whose
          condition takes the branch to [tgt] *)

val operand : ctx -> Gpu_isa.Instr.operand -> int

(** [lane_operand ctx lane op] — the lane-resolved operand value.
    [%laneid] is [lane]; a lane's linear thread id is [%tid + %laneid]. *)
val lane_operand : ctx -> int -> Gpu_isa.Instr.operand -> int

(** Evaluate the instruction: performs register writes and memory effects,
    returns the control outcome. Division and remainder by zero yield 0;
    shift counts are masked to 5 bits (32-bit GPU semantics). Shared
    accesses outside the CTA's allocation wrap and bump
    [stats.shared_oob]. Under [--simt] this is also the interpreter of a
    collapsed warp (all lanes equal, on [regs]): with [lanes > 0] a
    recorded store lands in every lane's trace as well. *)
val step : ctx -> Gpu_isa.Instr.t -> outcome

(** [decode instr] is [fun ctx -> step ctx instr], decoded once: the
    register/immediate forms of [Bin], [Mov], [Mad] and [Cmp], the
    branches on a register and global loads through a register become
    closures specialised on opcode and operand kinds, whose [Goto]
    outcomes are allocated at decode time; every other form calls
    {!step}. The SM decodes each pc once and runs warp-uniform (and
    collapsed [--simt]) issues through the result. *)
val decode : Gpu_isa.Instr.t -> ctx -> outcome

(** [branch_masks ctx instr ~mask] — pure per-lane evaluation of a
    conditional branch: [Some (taken_mask, target)], or [None] for
    non-conditional instructions. Counts nothing (safe to call from
    scheduler peeks). With [~collapsed:true] registers are read from the
    warp-uniform [regs] row, as every lane of a collapsed warp holds it. *)
val branch_masks :
  ?collapsed:bool -> ctx -> Gpu_isa.Instr.t -> mask:int -> (int * int) option

(** [step_simt ctx instr ~mask] evaluates the instruction for every lane
    set in [mask] against the lane-resolved register file.

    Counter contract (the bit-identity contract with the warp-uniform
    model): shared/spill traffic counters advance once
    per executed instruction regardless of how many lanes are active, and
    [stats.shared_oob] bumps at most once per instruction. The warp-level
    store trace records the lowest active lane; every active lane is
    additionally recorded in the lane-resolved trace
    (see {!Stats.lane_store_traces}). *)
val step_simt : ctx -> Gpu_isa.Instr.t -> mask:int -> lane_outcome
