(* Register (re)allocation by interference-graph coloring: the oracle of
   the allocator suite, which checks that the workloads are
   allocator-tight.

   Kernels authored in the builder DSL may use more register names than
   their peak live count; a hardware kernel's allocation equals the peak
   (the property RegMutex's index arithmetic relies on, and the property
   the Table I workloads are tested against). This pass renames registers
   so that names with non-overlapping lifetimes share an index:

   - two names interfere when one is defined while the other is live (or
     they are live/referenced at the same instruction — conservatively, a
     clique per instruction over [live_in ∪ live_out ∪ refs]);
   - greedy coloring in decreasing-degree order assigns each name the
     lowest color unused by its colored neighbours.

   The result is a name→name map (not a bijection — that is the point),
   and renaming through it preserves semantics because interfering names
   keep distinct indices. *)

module Liveness = Gpu_analysis.Liveness
module Program = Gpu_isa.Program
module Instr = Gpu_isa.Instr
module Regset = Gpu_isa.Regset

type t = {
  coloring : int array;
  n_colors : int;
}

(* Per-instruction cliques: live_in ∪ live_out ∪ refs. Conservative — it
   also joins a dying value with one born at the same instruction, which
   keeps mov/def chains safe without def/use order analysis. *)
let cliques prog =
  let liveness = Liveness.analyze ~widen:false prog in
  Array.init (Program.length prog) (fun i ->
      Regset.union
        (Instr.regs (Program.get prog i))
        (Regset.union liveness.Liveness.live_in.(i) liveness.Liveness.live_out.(i)))

let interference_matrix prog =
  let n = prog.Program.n_regs in
  let matrix = Array.make_matrix n n false in
  Array.iter
    (fun set ->
      Regset.iter
        (fun a ->
          Regset.iter
            (fun b ->
              if a <> b then begin
                matrix.(a).(b) <- true;
                matrix.(b).(a) <- true
              end)
            set)
        set)
    (cliques prog);
  matrix

let interfere prog a b =
  let m = interference_matrix prog in
  if a < 0 || b < 0 || a >= prog.Program.n_regs || b >= prog.Program.n_regs then
    invalid_arg "Allocator.interfere: register out of range";
  m.(a).(b)

let allocate prog =
  let n = prog.Program.n_regs in
  let matrix = interference_matrix prog in
  let degree r = Array.fold_left (fun acc i -> if i then acc + 1 else acc) 0 matrix.(r) in
  let order = List.init n (fun r -> r) in
  let order =
    List.sort
      (fun a b -> match compare (degree b) (degree a) with 0 -> compare a b | c -> c)
      order
  in
  let coloring = Array.make n (-1) in
  List.iter
    (fun r ->
      let used = Array.make n false in
      for other = 0 to n - 1 do
        if matrix.(r).(other) && coloring.(other) >= 0 then
          used.(coloring.(other)) <- true
      done;
      let rec first c = if used.(c) then first (c + 1) else c in
      coloring.(r) <- first 0)
    order;
  let n_colors = 1 + Array.fold_left max (-1) coloring in
  { coloring; n_colors }

let apply prog t =
  if Array.length t.coloring <> prog.Program.n_regs then
    invalid_arg "Allocator.apply: coloring size mismatch";
  Program.map_instrs
    (fun _ instr -> Instr.map_regs (fun r -> t.coloring.(r)) instr)
    prog

let minimize prog = apply prog (allocate prog)
