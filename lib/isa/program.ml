type t = {
  name : string;
  body : Instr.t array;
  n_regs : int;
}

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let compute_n_regs body =
  Array.fold_left
    (fun acc i ->
      let rs = Instr.regs i in
      if Regset.is_empty rs then acc else max acc (1 + Regset.max_elt rs))
    0 body

let validate ~name body =
  let n = Array.length body in
  if n = 0 then invalid "%s: empty program" name;
  let has_exit = Array.exists (fun i -> i = Instr.Exit) body in
  if not has_exit then invalid "%s: no exit instruction" name;
  (match body.(n - 1) with
  | Instr.Exit | Instr.Jump _ -> ()
  | _ -> invalid "%s: last instruction falls through the end" name);
  Array.iteri
    (fun idx i ->
      (match Instr.target i with
      | Some t when t < 0 || t >= n ->
          invalid "%s: instruction %d branches to invalid index %d" name idx t
      | Some _ | None -> ());
      let rs = Instr.regs i in
      if (not (Regset.is_empty rs)) && Regset.max_elt rs > Regset.max_reg then
        invalid "%s: instruction %d uses register above r%d" name idx Regset.max_reg)
    body

let create ~name body =
  validate ~name body;
  { name; body = Array.copy body; n_regs = compute_n_regs body }

let length p = Array.length p.body
let get p i = p.body.(i)

let insert_before p inserts =
  let n = Array.length p.body in
  let per_index = Array.make (n + 1) [] in
  List.iter
    (fun (i, instrs) ->
      if i < 0 || i > n then
        invalid "%s: insertion index %d out of [0, %d]" p.name i n;
      per_index.(i) <- per_index.(i) @ instrs)
    inserts;
  (* new_pos.(i) = index of the first instruction inserted before original
     instruction i (or of instruction i itself when nothing is inserted). *)
  let new_pos = Array.make (n + 1) 0 in
  let total = ref 0 in
  for i = 0 to n do
    new_pos.(i) <- i + !total;
    total := !total + List.length per_index.(i)
  done;
  let out = Array.make (n + !total) Instr.Exit in
  let cursor = ref 0 in
  let push instr = out.(!cursor) <- instr; incr cursor in
  let retarget instr = Instr.map_target (fun t -> new_pos.(t)) instr in
  for i = 0 to n - 1 do
    List.iter (fun instr -> push (retarget instr)) per_index.(i);
    push (retarget p.body.(i))
  done;
  List.iter (fun instr -> push (retarget instr)) per_index.(n);
  create ~name:p.name out

let map_instrs f p =
  create ~name:p.name (Array.mapi f p.body)

let count pred p =
  Array.fold_left (fun acc i -> if pred i then acc + 1 else acc) 0 p.body

let equal a b =
  String.equal a.name b.name
  && Array.length a.body = Array.length b.body
  && Array.for_all2 Instr.equal a.body b.body

let to_string p =
  let b = Buffer.create (64 + (24 * Array.length p.body)) in
  Buffer.add_string b "kernel ";
  Buffer.add_string b p.name;
  Buffer.add_string b " (";
  Buffer.add_string b (string_of_int p.n_regs);
  Buffer.add_string b " regs)\n";
  Array.iteri
    (fun i instr ->
      let index = string_of_int i in
      for _ = String.length index to 3 do
        Buffer.add_char b ' '
      done;
      Buffer.add_string b index;
      Buffer.add_string b ": ";
      Instr.add_to_buffer b instr;
      Buffer.add_char b '\n')
    p.body;
  Buffer.contents b

let pp ppf p = Format.pp_print_string ppf (to_string p)
