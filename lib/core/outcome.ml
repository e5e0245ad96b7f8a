module Stats = Gpu_sim.Stats

type plan = {
  bs : int;
  es : int;
  n_acquires : int;
  n_movs : int;
  ext_static_fraction : float;
}

type t = {
  technique : Technique.t;
  kernel_name : string;
  cycles : int;
  instructions : int;
  theoretical_warps : int;
  theoretical_occupancy : float;
  achieved_occupancy : float;
  acquire_ratio : float;
  srp_sections : int;
  counters : Stats.counters;
  choice : Es_heuristic.choice option;
  plan : plan option;
}

let plan_of (p : Transform.plan) =
  {
    bs = p.Transform.bs;
    es = p.Transform.es;
    n_acquires = p.Transform.n_acquires;
    n_movs = p.Transform.n_movs;
    ext_static_fraction = p.Transform.ext_static_fraction;
  }

let with_compile (p : Technique.prepared) o =
  {
    o with
    technique = p.Technique.technique;
    choice = p.Technique.choice;
    plan = Option.map plan_of p.Technique.plan;
  }

(* Any change to this tuple moves every committed golden fingerprint. *)
let fingerprint o =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( o.kernel_name, Technique.name o.technique, o.cycles, o.instructions,
            o.theoretical_warps, o.theoretical_occupancy, o.achieved_occupancy,
            o.acquire_ratio, o.srp_sections, o.counters.Stats.acquire_execs,
            o.counters.Stats.acquire_first_try, o.counters.Stats.shared_oob )
          []))

let reduction_pct ~baseline o =
  if baseline.cycles = 0 then 0.
  else
    100.
    *. float_of_int (baseline.cycles - o.cycles)
    /. float_of_int baseline.cycles

let increase_pct ~baseline o = -.reduction_pct ~baseline o

let energy arch o = Technique.energy arch o.technique o.counters
