(** Register-management policy the SM enforces at CTA launch and at issue.

    The compiler side of RegMutex produces the transformed program; this
    type tells the simulated hardware how physical registers are granted:

    - [Static]: the stock GPU — the full (granularity-rounded) register
      demand is reserved per warp for its whole lifetime.
    - [Srp]: RegMutex — [bs] registers reserved per thread; [es] more come
      from the Shared Register Pool between [Acquire]/[Release].
    - [Srp_paired]: RegMutex paired-warps specialization — each pair of
      sibling warps owns a dedicated extended set.
    - [Owf]: Jatala et al. — pairs share the registers above [bs]; the
      first warp to touch them keeps them until it exits (no in-kernel
      release); owner warps are scheduled first.
    - [Rfv]: Jeon et al. register file virtualization — physical registers
      track the live set exactly; CTAs are admitted regardless of static
      register demand. [live.(pc)] is the compiler-provided live count at
      each instruction.
    - [Regdem]: Sakdhnagool et al. register demotion — the compiler spills
      excess registers to a reserved shared-memory window, so the hardware
      side is plain static allocation of the reduced register count;
      [spill_words] sizes the per-CTA spill window the execution contexts
      address via [Spill] instructions. *)

type t =
  | Static of { regs_per_thread : int }
  | Srp of { bs : int; es : int; verify : bool }
  | Srp_paired of { bs : int; es : int; verify : bool }
  | Owf of { bs : int; es : int }
  | Rfv of { live : int array; max_live : int }
  | Regdem of { regs_per_thread : int; spill_words : int }

(** Registers one CTA consumes at admission (for the launch-time resource
    check), in physical registers. *)
val regs_per_cta : Gpu_uarch.Arch_config.t -> t -> warps_per_cta:int -> int

(** Extended-set sections an SM of [cta_capacity] CTAs (of [wpc] warps and
    [regs_cta] registers each) provides: SRP sections carved from the
    register file's leftover, or one pair per two resident warps under the
    paired and OWF policies; 0 for the others.
    @raise Invalid_argument under the paired or OWF policy when [wpc] is
    odd. *)
val sections :
  Gpu_uarch.Arch_config.t -> t -> cta_capacity:int -> wpc:int -> regs_cta:int ->
  int

(** What makes a pc a policy event (see {!hooks.event}): an acquire that
    asks the section pool, a first extended access that claims registers
    until the warp holds them, or a move whose register demand must fit. *)
type event = No_event | Acquire | Claim | Demand

(** One policy's issue-stage unit, built once per SM by {!hooks}: its
    static facts and its state behind closures over warp slots. The SM
    calls a hook only at a policy event — an [Acquire]/[Release], a pc
    {!event} names, a CTA launch, a warp exit — never on a plain issue.
    Policies without a pool, claim or demand keep the static answers:
    nothing held, everything fits. *)
type hooks = {
  bs : int;  (** base-set size; [max_int] when the policy has none *)
  es : int;  (** extended-set size *)
  verify : bool;  (** drive extended accesses through the Figure 6 mapping *)
  sections : int;  (** extended-set sections this SM provides *)
  max_rank : int;
      (** the highest blockage rank a check can report: 3 memory slot, 4
          acquire or claim, 5 register demand *)
  priority : int;  (** scheduling priority at launch; a claim lowers it to 0 *)
  spill_words : int;  (** per-CTA spill window, in words *)
  event : acquire:bool -> extended:bool -> event;
      (** the event at a pc, from whether it is an [Acquire] and whether it
          touches a register at or above [bs] *)
  moves : bool;  (** whether every pc move calls [move] *)
  can_acquire : int -> bool;  (** may the slot's acquire proceed now *)
  acquire : int -> int;
      (** the section newly granted, [-1] when the warp proceeds without a
          grant (already held, or no pool), [-2] when it must retry *)
  release : int -> bool;  (** whether the slot held a section it released *)
  held : int -> int;  (** the section the slot holds, [-1] for none *)
  can_claim : int -> bool;  (** may the slot claim its extended set now *)
  claim : int -> unit;
  fits : int -> int -> bool;
      (** [fits slot next]: does the demand at pc [next] fit the pool *)
  move : int -> int -> unit;  (** [move slot next]: charge pc [next]'s demand *)
  can_admit : unit -> bool;  (** does one more CTA fit *)
  admit : int -> unit;  (** charge a warp launched into the slot *)
  exit : int -> bool;  (** release the slot's state; whether a section freed *)
  in_use : unit -> int;  (** sections currently held *)
  invariant : unit -> string option;
      (** the pool's conservation check: [Some msg] when broken *)
}

(** [hooks cfg t ~soa ~n_pcs ~cta_capacity ~wpc ~regs_cta] builds the
    record for one SM whose warps live in [soa], running a program of
    [n_pcs] instructions.
    @raise Invalid_argument as {!sections} does, or when an RFV live table
    does not cover [n_pcs] instructions. *)
val hooks :
  Gpu_uarch.Arch_config.t -> t -> soa:Warp.Soa.t -> n_pcs:int ->
  cta_capacity:int -> wpc:int -> regs_cta:int -> hooks

val name : t -> string
val pp : Format.formatter -> t -> unit
