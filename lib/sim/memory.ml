type t = { global : (int, int) Hashtbl.t }

let create () = { global = Hashtbl.create 4096 }

let mask addr = addr land 0x3fffffff

(* Knuth multiplicative hash with an xor-shift finaliser: the shift folds
   high bits into the low ones so low-bit tests (parity, small masks) vary
   across addresses too. Stable pseudo-random contents for unwritten
   addresses. *)
let default_value addr =
  let v = mask addr * 2654435761 in
  (v lxor (v lsr 15)) land 0xffff

(* [Hashtbl.find] rather than [find_opt]: a global load is on the issue
   path, and the option would be allocated on every hit. *)
let read_global t addr =
  let addr = mask addr in
  match Hashtbl.find t.global addr with
  | v -> v
  | exception Not_found -> default_value addr

let write_global t addr v = Hashtbl.replace t.global (mask addr) v

let footprint t = Hashtbl.length t.global

let written t =
  Hashtbl.fold (fun addr v acc -> (addr, v) :: acc) t.global []
  |> List.sort compare
