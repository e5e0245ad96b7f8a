(** Figure 1: utilization of a sample warp's allocated registers during
    kernel execution, for six kernels — live registers over allocated
    registers per executed instruction. The paper's observation: for most
    of the execution only a subset of the allocation is live. *)

type row = {
  app : string;
  dynamic_instructions : int;
  mean_ratio : float;          (** average live/allocated *)
  below_half : float;          (** fraction of time at ≤50% utilization *)
  sparkline : string;
      (** the live/allocated profile, 72 columns wide
          ({!Gpu_analysis.Pressure.sparkline}) *)
}

(** One row per kernel, each read back from the engine's result store
    when it holds it ({!Engine.memo}). *)
val rows : Exp_config.t -> row list
val print : Exp_config.t -> unit
