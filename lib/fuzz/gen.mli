(** Seeded random kernel generator over the [gpu_isa] DSL.

    Every generated program is structured — control flow is limited to
    if/else diamonds and counted loops on reserved counter registers — so
    it always terminates, and its memory behaviour is scheduling-
    independent by construction: loads only touch a low address window no
    store can reach (stores are masked into a disjoint high region, shared
    stores are write-only sinks), so a warp's store trace is a pure
    function of the program. That determinism is what lets the oracle
    compare traces across techniques, policies and stepping modes.

    Three families:
    - [Pressure]: no barriers, with a guaranteed register-pressure bulge,
      so a forced Bs/Es split is always meaningful and never deadlocks;
    - [Barrier]: [bar.sync] at CTA-uniform points (top level, or a
      top-level counted loop body), exercising the heuristic path's
      barrier deadlock rules;
    - [Divergent]: branch conditions and loop trip counts keyed to a hash
      of [tid + %laneid], so warps genuinely diverge under SIMT execution
      ([--simt]); no barriers (a divergent-arm barrier deadlocks by
      design). The programs stay valid under the warp-uniform model,
      where [%laneid] reads 0. *)

type family = Pressure | Barrier | Divergent

type t = {
  seed : int;
  family : family;
  program : Gpu_isa.Program.t;
  grid : int;         (** grid CTAs *)
  threads : int;      (** threads per CTA; always a multiple of 64 so the
                          paired/OWF policies (even warps) are runnable *)
  params : int array;
  salt : int;         (** extra per-seed randomness for oracle decisions *)
}

val family_name : family -> string

(** The address discipline: addresses are masked with [load_mask], so
    loads read [0, load_mask] (plus a small literal offset) and global
    stores land in [store_base, store_base + load_mask]. *)
val load_mask : int
val store_base : int

(** [generate ~seed] builds the launch case for [seed], deterministically. *)
val generate : seed:int -> t

(** The kernel launch, optionally with the program replaced (the shrinker
    and fault injection substitute mutated bodies). *)
val kernel : ?program:Gpu_isa.Program.t -> t -> Gpu_sim.Kernel.t
