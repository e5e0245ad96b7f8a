(** Immediate-post-dominator reconvergence points for SIMT execution.

    A warp that diverges at a conditional branch reconverges where every
    path out of the branch must meet again: the first instruction of the
    branch block's immediate post-dominator ({!Dominance.ipostdom}). The
    per-warp reconvergence stack in {!Gpu_sim.Sm} pushes this PC on
    divergence and pops when execution reaches it. *)

(** [table p] maps each conditional-branch instruction index to its
    reconvergence PC. Non-branch entries (and branches whose only
    post-dominator is the virtual exit sink) hold {!sentinel}, a PC no
    instruction ever reaches — such branches reconverge only when their
    lanes exit. *)
val table : Gpu_isa.Program.t -> int array

(** [table] of [cfg]'s program, given [cfg]'s dominance. *)
val of_cfg : Cfg.t -> Dominance.t -> int array

(** [sentinel p] is [Program.length p]: the never-matched reconvergence PC
    standing in for the virtual exit sink. *)
val sentinel : Gpu_isa.Program.t -> int
