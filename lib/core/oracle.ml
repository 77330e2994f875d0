(** Ground-truth monomorphism oracle. It records, independently of the Class
    List, the *set* of value classes ever stored into each
    [(classid, line, pos)] slot. Used to

    - validate the mechanism (property test: the Class List marks a slot
      valid iff the oracle saw at most one class), and
    - compute Figure 3 (fraction of object load accesses that target
      monomorphic properties / monomorphic elements arrays), which the paper
      derives from a full-run profile. *)

type slot_info = {
  mutable classes : int list;  (** distinct value ClassIDs seen, small *)
  mutable stores : int;
}

(* Int-keyed table: [record] runs on every special store, where the generic
   table's [find_opt] would allocate a [Some] and compare keys
   polymorphically. [Hashtbl.hash] keeps the generic table's bucket
   order. *)
module Slots = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = { slots : slot_info Slots.t }

let create () = { slots = Slots.create 256 }

let key ~classid ~line ~pos = (((classid lsl 8) lor line) lsl 3) lor pos

let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> x = y || mem_int x rest

let record t ~classid ~line ~pos ~value_classid =
  let k = key ~classid ~line ~pos in
  let info =
    match Slots.find t.slots k with
    | i -> i
    | exception Not_found ->
      let i = { classes = []; stores = 0 } in
      Slots.replace t.slots k i;
      i
  in
  info.stores <- info.stores + 1;
  if not (mem_int value_classid info.classes) then
    info.classes <- value_classid :: info.classes

(** Is the slot monomorphic over the whole recorded run? Slots never stored
    to count as monomorphic (vacuously, matching the Class List's ValidMap
    initialization). *)
let is_monomorphic t ~classid ~line ~pos =
  match Slots.find_opt t.slots (key ~classid ~line ~pos) with
  | None -> true
  | Some i -> List.length i.classes <= 1

let distinct_classes t ~classid ~line ~pos =
  match Slots.find_opt t.slots (key ~classid ~line ~pos) with
  | None -> 0
  | Some i -> List.length i.classes

let observed_classes t ~classid ~line ~pos =
  match Slots.find_opt t.slots (key ~classid ~line ~pos) with
  | None -> []
  | Some i -> i.classes

(** A value class whose objects mutated their hidden class in place is no
    longer a single type: mark every slot that recorded it polymorphic
    (sentinel class -1). *)
let retire_value_class t ~value_classid =
  Slots.iter
    (fun _ info ->
      if List.mem value_classid info.classes && not (List.mem (-1) info.classes)
      then info.classes <- -1 :: info.classes)
    t.slots

let fold f init t =
  Slots.fold
    (fun k info acc ->
      let pos = k land 7 in
      let line = (k lsr 3) land 0xff in
      let classid = (k lsr 11) land 0xff in
      f acc ~classid ~line ~pos ~info)
    t.slots init
