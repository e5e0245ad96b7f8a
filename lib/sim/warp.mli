(** Per-warp execution state, stored structure-of-arrays.

    The simulator hot loop reads warp state by slot on every cycle (the
    SM's issue masks name the slots worth reading), so the hot mutable
    fields ([pc], [ready_at], [status], the acquire state,
    issue counters) live in packed [int array]s indexed by warp slot —
    one cache-friendly {!Soa.t} per SM — instead of one boxed record per
    warp. A slot's registers are one lane-major row, one lane wide
    unless the warp runs lane-resolved (see DESIGN.md);
    [reg_ready.(slot).(r)] is the cycle at which the in-flight producer
    of [r] completes — the scoreboard consulted before issue. A register
    policy's own per-warp state lives in its {!Policy.hooks}. *)

type status =
  | Ready       (** may issue (subject to scoreboard/structural checks) *)
  | At_barrier  (** arrived at a [Bar]; waiting for the CTA *)
  | Done        (** executed [Exit] *)

module Soa : sig
  (** Status encoding in {!t.status}. [st_absent] doubles as
      "no warp resident in this slot". *)

  val st_ready : int
  val st_barrier : int
  val st_done : int
  val st_absent : int

  (** Per-slot SIMT execution state (allocated only under [--simt]): the
      immediate-post-dominator reconvergence stack. The running state is
      the triple [(pc.(slot), active.(slot), rpc.(slot))]; suspended
      branch arms and reconvergence continuations live on the per-slot
      stack, deepest enclosing scope first.

      A slot is either {e collapsed} or {e expanded}. A collapsed warp has
      not read [%laneid] yet, so its lanes hold equal values: it executes
      on lane 0's segment of its register row under the full mask, with an
      empty stack and the sentinel [rpc]. {!simt_expand} broadcasts lane 0
      into every lane and hands the warp to the n-lane path for the rest
      of its life. *)
  type simt = {
    lanes : int;                  (** warp width (lanes per warp) *)
    full_mask : int;              (** [(1 lsl lanes) - 1] *)
    collapsed : int array;        (** 1 while the slot is collapsed, else 0 *)
    active : int array;           (** active-lane bitmask per slot *)
    rpc : int array;
        (** current reconvergence pc per slot; the program length acts as
            the never-reached top-level sentinel *)
    stk_pc : int array array;     (** suspended-entry pcs (rows grow) *)
    stk_rpc : int array array;
    stk_mask : int array array;
    stk_depth : int array;
  }

  type t = {
    n_slots : int;
    n_regs : int;
    status : int array;           (** st_* code per slot *)
    pc : int array;
    ready_at : int array;
        (** earliest cycle the current instruction's operands are all
            ready — the maximum [reg_ready] over the registers it
            touches, maintained by the SM at every [pc] move
            ({!refresh_ready_at}). The wakeup layer reads it to
            fast-forward over scoreboard stalls. *)
    age : int array;              (** global launch sequence number *)
    key : int array;
        (** packed scheduler ordering key ([Scheduler.pack_key] of the
            warp's policy priority and age); [max_int] when absent *)
    acquire_stalled : int array;
        (** 0/1: the acquire at the current [pc] already failed once *)
    acquired_at : int array;
        (** cycle the currently-held extended set was granted, or [-1]
            when none is held. Always maintained (not just under
            telemetry) so deadlock diagnostics can report how long each
            holder has sat on its section. *)
    issued : int array;           (** dynamic instructions issued *)
    global_cta : int array;       (** CTA index within the grid *)
    warp_in_cta : int array;
    cta_slot : int array;         (** resident-CTA slot within the SM *)
    regs : int array array;
        (** register row per slot, lane-major ([lane * n_regs + r]):
            [n_regs] words (lane 0) until the slot first runs expanded
            under [--simt], [lanes * n_regs] from then on *)
    reg_ready : int array array;  (** scoreboard row per slot *)
    simt : simt option;           (** reconvergence state under [--simt] *)
  }

  (** [create ?lanes ~n_slots ~n_regs ()] — passing [lanes] (the warp
      width, 1..62) allocates the per-lane SIMT state; without it the SoA
      is the plain warp-uniform layout. *)
  val create : ?lanes:int -> n_slots:int -> n_regs:int -> unit -> t

  (** Is a warp resident in [slot]? *)
  val resident : t -> int -> bool

  (** Decode {!field-status}; raises if the slot is empty. *)
  val status_of : t -> int -> status

  (** Install a fresh warp in [slot]: resets all hot fields and zeroes
      the register/scoreboard rows. The caller sets [key] afterwards (it
      depends on the register policy). *)
  val launch :
    t ->
    slot:int ->
    cta_slot:int ->
    global_cta:int ->
    warp_in_cta:int ->
    age:int ->
    unit

  (** Free the slot ([status] becomes [st_absent], [key] [max_int]). *)
  val retire : t -> slot:int -> unit

  (** All source and destination registers of [instr] ready at [cycle]?
      Equivalent to [ready_at.(slot) <= cycle] once {!refresh_ready_at}
      ran for the current [pc]; kept for tests and assertions. *)
  val deps_ready : t -> slot:int -> Gpu_isa.Instr.t -> cycle:int -> bool

  (** [refresh_ready_at t ~slot ~touched] recomputes [ready_at.(slot)]
      as the max scoreboard entry over [touched], the precomputed list
      of registers the instruction at the new [pc] reads or writes.
      Must be called after every [pc] move (the SM does). *)
  val refresh_ready_at : t -> slot:int -> touched:int array -> unit

  (** {2 SIMT reconvergence stack}

      All operations raise [Invalid_argument] when the SoA was created
      without [lanes]. *)

  (** Launch a slot expanded: zero every lane's registers, install [mask]
      as the active mask and [rpc] (the program-length sentinel) as the
      top-level reconvergence pc, empty the stack. Returns the slot's
      register row, grown to every lane on first use. *)
  val simt_reset : t -> slot:int -> mask:int -> rpc:int -> int array

  (** Launch a slot collapsed: full mask, [rpc] the sentinel, empty stack;
      only lane 0's segment of the row is live. *)
  val simt_collapse : t -> slot:int -> rpc:int -> unit

  (** Is the slot collapsed? *)
  val simt_collapsed : t -> slot:int -> bool

  (** Expand a collapsed slot: grow its row to every lane (on first use)
      and copy lane 0's segment into the others, reset the mask, [rpc] and
      stack as {!simt_collapse} does, and mark it expanded. Returns the
      row. *)
  val simt_expand : t -> slot:int -> rpc:int -> int array

  (** Current active-lane bitmask. *)
  val simt_active : t -> slot:int -> int

  (** Divergent conditional branch at the current pc: pushes the
      reconvergence continuation (full current mask, resuming at [rpc])
      and the taken arm ([taken] lanes at [tgt]); the warp continues into
      the fall-through arm with the remaining lanes under reconvergence
      scope [rpc]. Route the fall-through pc through {!simt_next}
      afterwards. *)
  val simt_diverge : t -> slot:int -> tgt:int -> taken:int -> rpc:int -> unit

  (** [simt_next t ~slot next] routes a computed next-pc through the
      stack: while [next] equals the current reconvergence pc, pop — the
      suspended taken arm runs next, and finally the continuation resumes
      at the reconvergence point with the full mask. Returns the pc to
      execute. *)
  val simt_next : t -> slot:int -> int -> int

  (** [Exit] under the current mask: active lanes terminate and are
      cleared from every suspended mask. [Some pc] resumes the surviving
      lanes; [None] means every lane has exited (the warp is done). *)
  val simt_exit : t -> slot:int -> int option

  (** Pure peek variants of {!simt_next} / {!simt_exit} for scheduler
      probes (no mutation). *)
  val simt_peek_next : t -> slot:int -> int -> int

  val simt_peek_exit : t -> slot:int -> int option
end
