(** Dynamic-execution counters shared by both tiers. Everything the paper's
    figures need is derived from these. *)

type t = {
  by_cat : int array;  (** optimized-tier instructions by {!Tce_jit.Categories} *)
  by_check_kind : int array;
      (** [C_check] executions by {!Tce_jit.Categories.check_kind}, indexed
          by {!Tce_jit.Categories.check_kind_slot} (slot 0 = unattributed;
          reconciliation asserts it stays 0 and the sum equals
          [by_cat.(index C_check)]) *)
  mutable guards_obj_load : int;
      (** checks (incl. untag guards) verifying values obtained from object
          property / elements loads — Figure 2's population *)
  mutable opt_loads : int;
  mutable opt_stores : int;
  mutable opt_branches : int;
  mutable opt_fp : int;
  mutable opt_cycles : int;
  mutable baseline_instrs : int;
  mutable baseline_cycles : float;
  mutable deopts : int;
  mutable cc_exception_deopts : int;
  mutable tierups : int;
  obj_loads : Tce_support.Int_table.t;
      (** dynamic object-load accesses per (classid, line, pos) oracle key;
          elements loads are the key with line=0, pos=2 (Figure 3) *)
  mutable obj_loads_first_line : int;  (** §5.3.4: property loads hitting line 0 *)
  mutable obj_loads_total : int;
}

let create () =
  {
    by_cat = Array.make Tce_jit.Categories.count 0;
    by_check_kind = Array.make (Tce_jit.Categories.check_kind_count + 1) 0;
    guards_obj_load = 0;
    opt_loads = 0;
    opt_stores = 0;
    opt_branches = 0;
    opt_fp = 0;
    opt_cycles = 0;
    baseline_instrs = 0;
    baseline_cycles = 0.0;
    deopts = 0;
    cc_exception_deopts = 0;
    tierups = 0;
    obj_loads = Tce_support.Int_table.create ~size:256 ();
    obj_loads_first_line = 0;
    obj_loads_total = 0;
  }

let reset t =
  Array.fill t.by_cat 0 (Array.length t.by_cat) 0;
  Array.fill t.by_check_kind 0 (Array.length t.by_check_kind) 0;
  t.guards_obj_load <- 0;
  t.opt_loads <- 0;
  t.opt_stores <- 0;
  t.opt_branches <- 0;
  t.opt_fp <- 0;
  t.opt_cycles <- 0;
  t.baseline_instrs <- 0;
  t.baseline_cycles <- 0.0;
  t.deopts <- 0;
  t.cc_exception_deopts <- 0;
  t.tierups <- 0;
  Tce_support.Int_table.clear t.obj_loads;
  t.obj_loads_first_line <- 0;
  t.obj_loads_total <- 0

(** Snapshot for window measurements: counting is purely additive, so the
    counters over a window are the end-state minus a snapshot taken at the
    window's start ({!since}) — which lets one execution serve both the
    whole-run and the steady-state measurement. *)
let copy t =
  {
    by_cat = Array.copy t.by_cat;
    by_check_kind = Array.copy t.by_check_kind;
    guards_obj_load = t.guards_obj_load;
    opt_loads = t.opt_loads;
    opt_stores = t.opt_stores;
    opt_branches = t.opt_branches;
    opt_fp = t.opt_fp;
    opt_cycles = t.opt_cycles;
    baseline_instrs = t.baseline_instrs;
    baseline_cycles = t.baseline_cycles;
    deopts = t.deopts;
    cc_exception_deopts = t.cc_exception_deopts;
    tierups = t.tierups;
    obj_loads = Tce_support.Int_table.copy t.obj_loads;
    obj_loads_first_line = t.obj_loads_first_line;
    obj_loads_total = t.obj_loads_total;
  }

(** [since t snap] is a fresh counter record holding [t - snap] — exactly
    what a reset at the snapshot point followed by the same execution
    would have accumulated (all counters only ever increment). *)
let since t snap =
  let d = create () in
  Array.iteri (fun i v -> d.by_cat.(i) <- v - snap.by_cat.(i)) t.by_cat;
  Array.iteri
    (fun i v -> d.by_check_kind.(i) <- v - snap.by_check_kind.(i))
    t.by_check_kind;
  d.guards_obj_load <- t.guards_obj_load - snap.guards_obj_load;
  d.opt_loads <- t.opt_loads - snap.opt_loads;
  d.opt_stores <- t.opt_stores - snap.opt_stores;
  d.opt_branches <- t.opt_branches - snap.opt_branches;
  d.opt_fp <- t.opt_fp - snap.opt_fp;
  d.opt_cycles <- t.opt_cycles - snap.opt_cycles;
  d.baseline_instrs <- t.baseline_instrs - snap.baseline_instrs;
  d.baseline_cycles <- t.baseline_cycles -. snap.baseline_cycles;
  d.deopts <- t.deopts - snap.deopts;
  d.cc_exception_deopts <- t.cc_exception_deopts - snap.cc_exception_deopts;
  d.tierups <- t.tierups - snap.tierups;
  Tce_support.Int_table.iter
    (fun key count ->
      let before = Tce_support.Int_table.find snap.obj_loads key 0 in
      if count - before > 0 then
        Tce_support.Int_table.set d.obj_loads key (count - before))
    t.obj_loads;
  d.obj_loads_first_line <- t.obj_loads_first_line - snap.obj_loads_first_line;
  d.obj_loads_total <- t.obj_loads_total - snap.obj_loads_total;
  d

let add_cat t cat n =
  t.by_cat.(Tce_jit.Categories.index cat) <- t.by_cat.(Tce_jit.Categories.index cat) + n

let opt_instrs t = Array.fold_left ( + ) 0 t.by_cat

let total_instrs t = opt_instrs t + t.baseline_instrs

let cat t cat = t.by_cat.(Tce_jit.Categories.index cat)

(** Record one dynamic object-load access (property or element) targeting
    the Class List slot [(classid, line, pos)]. *)
let record_obj_load t ~classid ~line ~pos =
  let key = (((classid lsl 8) lor line) lsl 3) lor pos in
  Tce_support.Int_table.incr t.obj_loads key 1;
  t.obj_loads_total <- t.obj_loads_total + 1;
  if line = 0 then t.obj_loads_first_line <- t.obj_loads_first_line + 1

(** Figure 3 classification against a full-run oracle:
    [(mono_prop, mono_elem, poly_prop, poly_elem)] dynamic access counts. *)
let classify_obj_loads t (oracle : Tce_core.Oracle.t) =
  Tce_support.Int_table.fold
    (fun key count (mp, me, pp, pe) ->
      let pos = key land 7 in
      let line = (key lsr 3) land 0xff in
      let classid = (key lsr 11) land 0xff in
      let mono = Tce_core.Oracle.is_monomorphic oracle ~classid ~line ~pos in
      let is_elem = line = 0 && pos = Tce_vm.Layout.elements_ptr_slot in
      match (mono, is_elem) with
      | true, false -> (mp + count, me, pp, pe)
      | true, true -> (mp, me + count, pp, pe)
      | false, false -> (mp, me, pp + count, pe)
      | false, true -> (mp, me, pp, pe + count))
    t.obj_loads (0, 0, 0, 0)
