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
  mutable regs : int array;
      (** the warp slot's register row (shared with the SM), lane-major:
          lane [l]'s register [r] at [l * n_regs + r]. A warp-uniform or
          collapsed warp uses lane 0's segment; the SM rebinds the field
          when the row grows at a warp's first expansion *)
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
                           model, which keeps no lane store traces *)
  n_regs : int;        (** architected registers per lane (row stride) *)
  mutable base : int;  (** the executing lane's segment offset in [regs] *)
  mutable lane : int;
      (** the executing lane ([%laneid]), or [-1] for a warp-level call,
          which reads [%laneid] as 0 and records a store in every lane's
          trace *)
  mutable leader : bool;
      (** this call records a store in the warp-level trace *)
  mutable taken : int;
      (** after {!run_lanes}: the lanes whose outcome was a [Goto] *)
}
(** Between calls a context is at warp level: [base = 0], [lane = -1],
    [leader = true]. {!run_lanes} leaves it there. *)

type outcome =
  | Next         (** fall through to [pc + 1] *)
  | Goto of int  (** branch taken *)
  | Stop         (** [Exit] *)
  | Sync         (** [Bar] — CTA barrier *)
  | Acq          (** [Acquire] — policy handled by the SM *)
  | Rel          (** [Release] *)

val operand : ctx -> Gpu_isa.Instr.operand -> int

(** Evaluate the instruction on the executing lane's segment: performs
    register writes and memory effects, returns the control outcome.
    Division and remainder by zero yield 0; shift counts are masked to 5
    bits (32-bit GPU semantics). Shared accesses outside the CTA's
    allocation wrap and bump [stats.shared_oob]. Shared and spill traffic
    counters are left to the caller (the SM counts them once per issued
    instruction). The reference {!decode} is tested against. *)
val step : ctx -> Gpu_isa.Instr.t -> outcome

(** [decode instr] is [fun ctx -> step ctx instr], decoded once: the
    register/immediate forms of [Bin], [Mov], [Mad] and [Cmp], the
    branches on a register and global loads through a register become
    closures specialised on opcode and operand kinds, whose [Goto]
    outcomes are allocated at decode time; every other form calls
    {!step}. The SM decodes each pc once and runs every issue through the
    result. Branch closures only read, so scheduler peeks may call them. *)
val decode : Gpu_isa.Instr.t -> ctx -> outcome

(** [run_lanes ctx f ~mask ~stride] — the n-lane driver: calls [f] once
    for each lane [l] set in [mask], in ascending order, with [lane = l]
    and [base = l * stride]. A warp-level call ([f ctx]) is the n = 1 case
    of the same semantics.

    Counter contract: [stats.shared_oob] bumps at most once per call. The
    warp-level store trace records the lowest active lane; every active
    lane is recorded in its own lane trace. Returns [Goto] when any lane
    branched (and sets [taken] to those lanes), otherwise the lanes'
    common outcome. *)
val run_lanes : ctx -> (ctx -> outcome) -> mask:int -> stride:int -> outcome
