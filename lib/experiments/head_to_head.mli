(** Head-to-head capstone figure: every technique in
    {!Regmutex.Technique.all} on the occupancy-limited workload set,
    reporting mean theoretical occupancy, mean cycle reduction vs
    baseline, hardware tracking-storage bits, and modelled energy
    ({!Gpu_uarch.Energy_model}) with its overhead relative to baseline. *)

type row = {
  tech : Regmutex.Technique.t;
  mean_occupancy : float;
  mean_reduction : float;  (** cycle reduction vs baseline, percent *)
  storage_bits : int;
  mean_energy_nj : float;
  mean_energy_overhead : float;  (** total energy vs baseline, percent *)
}

(** One row per technique, in {!Regmutex.Technique.all} order. *)
val rows : Exp_config.t -> row list

val print : Exp_config.t -> unit
