(* Tests for the paper's core mechanism: Class List, Class Cache, oracle. *)

open Tce_core
module CL = Class_list
module CC = Class_cache

let mk () =
  let mem = Tce_vm.Mem.create () in
  CL.create mem

let smi = Tce_vm.Layout.smi_classid

(* --- Class List semantics (paper Fig. 6) --- *)

let test_first_profile () =
  let cl = mk () in
  (match CL.update cl ~classid:3 ~line:0 ~pos:1 ~value_classid:smi with
  | CL.First_profile -> ()
  | _ -> Alcotest.fail "expected First_profile");
  Alcotest.(check bool) "now monomorphic" true
    (CL.is_monomorphic cl ~classid:3 ~line:0 ~pos:1);
  Alcotest.(check (option int)) "profiled class" (Some smi)
    (CL.profiled_class cl ~classid:3 ~line:0 ~pos:1)

let test_still_mono_and_break () =
  let cl = mk () in
  ignore (CL.update cl ~classid:3 ~line:0 ~pos:1 ~value_classid:7);
  (match CL.update cl ~classid:3 ~line:0 ~pos:1 ~value_classid:7 with
  | CL.Still_mono -> ()
  | _ -> Alcotest.fail "expected Still_mono");
  (match CL.update cl ~classid:3 ~line:0 ~pos:1 ~value_classid:9 with
  | CL.Now_polymorphic { was_speculated = false; _ } -> ()
  | _ -> Alcotest.fail "expected Now_polymorphic without speculation");
  Alcotest.(check bool) "no longer monomorphic" false
    (CL.is_monomorphic cl ~classid:3 ~line:0 ~pos:1);
  (match CL.update cl ~classid:3 ~line:0 ~pos:1 ~value_classid:7 with
  | CL.Already_poly -> ()
  | _ -> Alcotest.fail "expected Already_poly");
  (* the valid bit never comes back, even for matching stores *)
  Alcotest.(check bool) "valid is one-way" false
    (CL.is_valid cl ~classid:3 ~line:0 ~pos:1)

let test_exception_on_speculated_break () =
  let cl = mk () in
  ignore (CL.update cl ~classid:5 ~line:1 ~pos:4 ~value_classid:2);
  CL.add_speculation cl ~classid:5 ~line:1 ~pos:4 ~fn:100;
  CL.add_speculation cl ~classid:5 ~line:1 ~pos:4 ~fn:101;
  match CL.apply cl ~classid:5 ~line:1 ~pos:4 ~value_classid:3 with
  | CL.Now_polymorphic { exception_raised = true; _ }, fns ->
    Alcotest.(check (list int)) "both functions deoptimized" [ 100; 101 ]
      (List.sort compare fns);
    (* the runtime cleared the speculation: a second break is silent *)
    ignore (CL.update cl ~classid:5 ~line:1 ~pos:4 ~value_classid:9);
    let _, fns2 = CL.apply cl ~classid:5 ~line:1 ~pos:4 ~value_classid:11 in
    Alcotest.(check (list int)) "no repeat exception" [] fns2
  | _ -> Alcotest.fail "expected exception with function list"

let test_remove_function () =
  let cl = mk () in
  ignore (CL.update cl ~classid:1 ~line:0 ~pos:1 ~value_classid:2);
  CL.add_speculation cl ~classid:1 ~line:0 ~pos:1 ~fn:42;
  CL.remove_function cl ~fn:42;
  let _, fns = CL.apply cl ~classid:1 ~line:0 ~pos:1 ~value_classid:3 in
  Alcotest.(check (list int)) "stale registration dropped" [] fns

(* --- inheritance + propagation (transition tree) --- *)

let with_tree () =
  let cl = mk () in
  (* class 10 --x--> 11 --y--> 12 *)
  let parent = function 11 -> Some 10 | 12 -> Some 11 | _ -> None in
  let children = function 10 -> [ 11 ] | 11 -> [ 12 ] | _ -> [] in
  cl.CL.parent_of <- parent;
  cl.CL.children_of <- children;
  cl

let test_inherit_profiles () =
  let cl = with_tree () in
  (* the parent profiles slot 1 as SMI before the child materializes *)
  ignore (CL.update cl ~classid:10 ~line:0 ~pos:1 ~value_classid:smi);
  Alcotest.(check (option int)) "child inherits the profile" (Some smi)
    (CL.profiled_class cl ~classid:12 ~line:0 ~pos:1)

let test_propagate_invalidation () =
  let cl = with_tree () in
  ignore (CL.update cl ~classid:10 ~line:0 ~pos:1 ~value_classid:smi);
  (* materialize the child and speculate on it *)
  Alcotest.(check bool) "child mono" true
    (CL.is_monomorphic cl ~classid:12 ~line:0 ~pos:1);
  CL.add_speculation cl ~classid:12 ~line:0 ~pos:1 ~fn:7;
  (* a store to a *parent-classed* object breaks the child's profile too:
     the object may later transition into the child class *)
  let _, fns = CL.apply cl ~classid:10 ~line:0 ~pos:1 ~value_classid:33 in
  Alcotest.(check (list int)) "child speculation deoptimized" [ 7 ] fns;
  Alcotest.(check bool) "child invalidated" false
    (CL.is_valid cl ~classid:12 ~line:0 ~pos:1)

let test_propagation_skips_unmaterialized () =
  let cl = with_tree () in
  ignore (CL.update cl ~classid:10 ~line:0 ~pos:1 ~value_classid:smi);
  ignore (CL.apply cl ~classid:10 ~line:0 ~pos:1 ~value_classid:33);
  (* the child materializes only now — lazily inheriting the *broken* state *)
  Alcotest.(check bool) "lazy child sees invalidation" false
    (CL.is_valid cl ~classid:12 ~line:0 ~pos:1)

let test_retire_value_class () =
  let cl = mk () in
  ignore (CL.update cl ~classid:1 ~line:0 ~pos:2 ~value_classid:20);
  ignore (CL.update cl ~classid:2 ~line:0 ~pos:2 ~value_classid:20);
  ignore (CL.update cl ~classid:3 ~line:0 ~pos:2 ~value_classid:21);
  CL.add_speculation cl ~classid:1 ~line:0 ~pos:2 ~fn:9;
  (* class 20's objects mutated their map in place (elements-kind
     transition): every profile naming 20 must die *)
  let fns = CL.retire_value_class cl ~value_classid:20 in
  Alcotest.(check (list int)) "speculator deoptimized" [ 9 ] fns;
  Alcotest.(check bool) "profile of 20 gone" false
    (CL.is_valid cl ~classid:1 ~line:0 ~pos:2);
  Alcotest.(check bool) "other entry gone too" false
    (CL.is_valid cl ~classid:2 ~line:0 ~pos:2);
  Alcotest.(check bool) "unrelated profile survives" true
    (CL.is_monomorphic cl ~classid:3 ~line:0 ~pos:2)

let prop_valid_monotone =
  (* ValidMap bits are one-way: once cleared, no sequence of stores can set
     them again. *)
  QCheck.Test.make ~name:"ValidMap monotone under random store sequences"
    ~count:300
    QCheck.(list (pair (int_bound 7) (int_bound 5)))
    (fun events ->
      let cl = mk () in
      let ok = ref true in
      List.iter
        (fun (classid, v) ->
          let pos = 1 + (v mod 7) in
          let was_valid = CL.is_valid cl ~classid ~line:0 ~pos in
          ignore (CL.update cl ~classid ~line:0 ~pos ~value_classid:v);
          let now_valid = CL.is_valid cl ~classid ~line:0 ~pos in
          if now_valid && not was_valid then ok := false)
        events;
      !ok)

let prop_classlist_matches_oracle =
  (* The Class List marks a slot monomorphic iff the oracle saw at most one
     distinct value class (on initialized slots, without tree callbacks). *)
  QCheck.Test.make ~name:"Class List agrees with the monomorphism oracle"
    ~count:300
    QCheck.(list (triple (int_bound 3) (int_bound 6) (int_bound 3)))
    (fun events ->
      let cl = mk () in
      let oracle = Oracle.create () in
      List.iter
        (fun (classid, pos0, v) ->
          let pos = 1 + pos0 in
          ignore (CL.update cl ~classid ~line:0 ~pos ~value_classid:v);
          Oracle.record oracle ~classid ~line:0 ~pos ~value_classid:v)
        events;
      List.for_all
        (fun (classid, pos0, _) ->
          let pos = 1 + pos0 in
          CL.is_monomorphic cl ~classid ~line:0 ~pos
          = (Oracle.is_monomorphic oracle ~classid ~line:0 ~pos
            && Oracle.distinct_classes oracle ~classid ~line:0 ~pos >= 1))
        events)

(* --- Class Cache hardware model --- *)

let test_cc_hit_miss () =
  let cl = mk () in
  let cc = CC.create ~config:{ CC.entries = 8; ways = 2 } () in
  let r1 = CC.access cc cl ~classid:1 ~line:0 ~pos:1 ~value_classid:smi in
  Alcotest.(check bool) "cold miss" false r1.CC.hit;
  let r2 = CC.access cc cl ~classid:1 ~line:0 ~pos:1 ~value_classid:smi in
  Alcotest.(check bool) "warm hit" true r2.CC.hit;
  Alcotest.(check int) "accesses" 2 cc.CC.stats.accesses;
  Alcotest.(check int) "hits" 1 cc.CC.stats.hits

let test_cc_eviction_and_writeback () =
  let cl = mk () in
  let cc = CC.create ~config:{ CC.entries = 4; ways = 1 } () in
  (* classes 0..7 with 4 direct-mapped sets: guaranteed conflicts *)
  for c = 0 to 7 do
    ignore (CC.access cc cl ~classid:c ~line:0 ~pos:1 ~value_classid:smi)
  done;
  Alcotest.(check bool) "writebacks happened" true (cc.CC.stats.writebacks > 0);
  (* the profiling state survives eviction (it lives in the Class List) *)
  for c = 0 to 7 do
    Alcotest.(check bool) "state preserved" true
      (CL.is_monomorphic cl ~classid:c ~line:0 ~pos:1)
  done

let test_cc_exception_path () =
  let cl = mk () in
  let cc = CC.create () in
  ignore (CC.access cc cl ~classid:9 ~line:0 ~pos:1 ~value_classid:3);
  CL.add_speculation cl ~classid:9 ~line:0 ~pos:1 ~fn:55;
  let r = CC.access cc cl ~classid:9 ~line:0 ~pos:1 ~value_classid:4 in
  Alcotest.(check bool) "exception" true r.CC.exn_raised;
  Alcotest.(check (list int)) "victims" [ 55 ] r.CC.functions_to_deopt;
  Alcotest.(check int) "counted" 1 cc.CC.stats.exceptions

let test_cc_geometry_validation () =
  Alcotest.(check bool) "entries % ways" true
    (try ignore (CC.create ~config:{ CC.entries = 9; ways = 2 } ()); false
     with Invalid_argument _ -> true)

let test_cc_storage_budget () =
  let cc = CC.create () in
  Alcotest.(check bool) "under 1.5KB (paper §5.4)" true
    (CC.storage_bytes cc <= 1536)

let prop_cc_transparent =
  (* The cache is a pure performance structure: running any event sequence
     through cache+list leaves the list in exactly the state of running it
     through the list alone. *)
  QCheck.Test.make ~name:"Class Cache is semantically transparent" ~count:200
    QCheck.(list (triple (int_bound 5) (int_bound 6) (int_bound 4)))
    (fun events ->
      let cl1 = mk () in
      let cc = CC.create ~config:{ CC.entries = 4; ways = 2 } () in
      let cl2 = mk () in
      List.iter
        (fun (classid, pos0, v) ->
          let pos = 1 + pos0 in
          ignore (CC.access cc cl1 ~classid ~line:0 ~pos ~value_classid:v);
          ignore (CL.apply cl2 ~classid ~line:0 ~pos ~value_classid:v))
        events;
      List.for_all
        (fun (classid, pos0, _) ->
          let pos = 1 + pos0 in
          CL.is_monomorphic cl1 ~classid ~line:0 ~pos
          = CL.is_monomorphic cl2 ~classid ~line:0 ~pos
          && CL.profiled_class cl1 ~classid ~line:0 ~pos
             = CL.profiled_class cl2 ~classid ~line:0 ~pos)
        events)

(* --- oracle --- *)

let test_oracle_basic () =
  let o = Oracle.create () in
  Alcotest.(check bool) "vacuously mono" true
    (Oracle.is_monomorphic o ~classid:1 ~line:0 ~pos:1);
  Oracle.record o ~classid:1 ~line:0 ~pos:1 ~value_classid:5;
  Oracle.record o ~classid:1 ~line:0 ~pos:1 ~value_classid:5;
  Alcotest.(check bool) "one class" true (Oracle.is_monomorphic o ~classid:1 ~line:0 ~pos:1);
  Oracle.record o ~classid:1 ~line:0 ~pos:1 ~value_classid:6;
  Alcotest.(check bool) "two classes" false
    (Oracle.is_monomorphic o ~classid:1 ~line:0 ~pos:1);
  Alcotest.(check int) "distinct" 2 (Oracle.distinct_classes o ~classid:1 ~line:0 ~pos:1)

let test_oracle_retire () =
  let o = Oracle.create () in
  Oracle.record o ~classid:1 ~line:0 ~pos:2 ~value_classid:9;
  Oracle.retire_value_class o ~value_classid:9;
  Alcotest.(check bool) "retired slot is polymorphic" false
    (Oracle.is_monomorphic o ~classid:1 ~line:0 ~pos:2)

let test_oracle_retire_sweep () =
  let o = Oracle.create () in
  Oracle.record o ~classid:1 ~line:0 ~pos:1 ~value_classid:9;
  Oracle.record o ~classid:2 ~line:1 ~pos:3 ~value_classid:9;
  Oracle.record o ~classid:3 ~line:0 ~pos:2 ~value_classid:7;
  Oracle.retire_value_class o ~value_classid:9;
  (* one retirement sweeps every slot naming the class; others untouched *)
  Alcotest.(check bool) "slot 1 polymorphic" false
    (Oracle.is_monomorphic o ~classid:1 ~line:0 ~pos:1);
  Alcotest.(check bool) "slot 2 polymorphic" false
    (Oracle.is_monomorphic o ~classid:2 ~line:1 ~pos:3);
  Alcotest.(check bool) "unrelated slot still mono" true
    (Oracle.is_monomorphic o ~classid:3 ~line:0 ~pos:2);
  Alcotest.(check (list int)) "sentinel recorded" [ -1; 9 ]
    (List.sort compare (Oracle.observed_classes o ~classid:1 ~line:0 ~pos:1));
  (* retiring again is idempotent: no second sentinel *)
  Oracle.retire_value_class o ~value_classid:9;
  Alcotest.(check (list int)) "idempotent" [ -1; 9 ]
    (List.sort compare (Oracle.observed_classes o ~classid:1 ~line:0 ~pos:1));
  (* later stores cannot resurrect monomorphism *)
  Oracle.record o ~classid:1 ~line:0 ~pos:1 ~value_classid:9;
  Alcotest.(check bool) "stays polymorphic" false
    (Oracle.is_monomorphic o ~classid:1 ~line:0 ~pos:1)

let test_claimed_class_peek () =
  let cl = mk () in
  cl.CL.parent_of <- (function 11 -> Some 10 | _ -> None);
  ignore (CL.update cl ~classid:10 ~line:0 ~pos:1 ~value_classid:7);
  (* the claim is inherited through the transition parent without
     materializing the child's entry *)
  Alcotest.(check (option int)) "inherited claim" (Some 7)
    (CL.claimed_class_peek cl ~classid:11 ~line:0 ~pos:1);
  Alcotest.(check bool) "child entry not materialized" true
    (CL.find cl ~classid:11 ~line:0 = None);
  Alcotest.(check (option int)) "uninitialized pos claims nothing" None
    (CL.claimed_class_peek cl ~classid:11 ~line:0 ~pos:2);
  (* breaking the parent profile withdraws the inherited claim *)
  ignore (CL.update cl ~classid:10 ~line:0 ~pos:1 ~value_classid:9);
  Alcotest.(check (option int)) "broken profile claims nothing" None
    (CL.claimed_class_peek cl ~classid:11 ~line:0 ~pos:1)


(* --- additional mechanism cases --- *)

let test_add_speculation_idempotent () =
  let cl = mk () in
  ignore (CL.update cl ~classid:2 ~line:0 ~pos:1 ~value_classid:smi);
  CL.add_speculation cl ~classid:2 ~line:0 ~pos:1 ~fn:5;
  CL.add_speculation cl ~classid:2 ~line:0 ~pos:1 ~fn:5;
  let fns = CL.take_speculators cl ~classid:2 ~line:0 ~pos:1 in
  Alcotest.(check (list int)) "no duplicate registration" [ 5 ] fns;
  (* after draining, the SpeculateMap bit is clear *)
  let e = CL.entry cl ~classid:2 ~line:0 in
  Alcotest.(check int) "speculate map cleared" 0
    (Tce_support.Bytemap.popcount e.CL.speculate_map)

let test_entry_addr_distinct () =
  let cl = mk () in
  let a1 = CL.entry_addr cl ~classid:1 ~line:0 in
  let a2 = CL.entry_addr cl ~classid:1 ~line:1 in
  let a3 = CL.entry_addr cl ~classid:2 ~line:0 in
  Alcotest.(check bool) "addresses distinct" true (a1 <> a2 && a2 <> a3 && a1 <> a3);
  Alcotest.(check int) "entry stride" CL.entry_bytes (a2 - a1)

(* Simulated addresses are pinned: the Class List range is reserved at the
   address an allocation of the same size would get, so entry addresses,
   the oddballs below the range and every allocation after it are
   unchanged. *)
let test_addresses_pinned () =
  let heap = Tce_vm.Heap.create () in
  let mem = heap.Tce_vm.Heap.mem in
  let cl = CL.create mem in
  let ptr v = Tce_vm.Value.ptr_addr v in
  Alcotest.(check int) "true" 0x10140 (ptr heap.Tce_vm.Heap.true_v);
  Alcotest.(check int) "null" 0x101c0 (ptr heap.Tce_vm.Heap.null_v);
  List.iter
    (fun (classid, line, addr) ->
      Alcotest.(check int)
        (Printf.sprintf "entry %d/%d" classid line)
        addr
        (CL.entry_addr cl ~classid ~line))
    [ (0, 0, 0x10200); (1, 0, 0x11200); (1, 1, 0x11210); (255, 255, 0x1101f0) ];
  Alcotest.(check int) "first allocation after the range" 0x110200
    (Tce_vm.Mem.allocate mem ~bytes:24 ~align:64);
  Alcotest.(check int) "second allocation" 0x110220
    (Tce_vm.Mem.allocate mem ~bytes:16 ~align:16);
  Alcotest.(check int) "oddball class word still reads"
    (Tce_vm.Layout.classid_of_class_word
       (Tce_vm.Mem.load mem (ptr heap.Tce_vm.Heap.true_v)))
    (Tce_vm.Heap.classid_of heap heap.Tce_vm.Heap.true_v)

(* Sweeps visit entries ClassID-major, line-minor, however they were
   materialized: [dump] lists them in that order, and the victims of
   [retire_value_class] come out in that order reversed (each entry's
   speculators are prepended as the sweep reaches it). *)
let test_sweep_order () =
  let cl = mk () in
  let coords = [ (9, 3); (2, 7); (200, 0); (9, 0); (2, 0); (0, 255) ] in
  List.iteri
    (fun k (classid, line) ->
      ignore (CL.update cl ~classid ~line ~pos:1 ~value_classid:42);
      CL.add_speculation cl ~classid ~line ~pos:1 ~fn:(100 + k);
      if k mod 2 = 0 then begin
        ignore (CL.update cl ~classid ~line ~pos:3 ~value_classid:42);
        CL.add_speculation cl ~classid ~line ~pos:3 ~fn:(200 + k)
      end)
    coords;
  Alcotest.(check (list (pair int int)))
    "dump order"
    [ (0, 255); (2, 0); (2, 7); (9, 0); (9, 3); (200, 0) ]
    (List.map (fun (c, l, _) -> (c, l)) (CL.dump cl));
  Alcotest.(check bool) "unmaterialized row" true (CL.find cl ~classid:77 ~line:5 = None);
  Alcotest.(check bool) "unmaterialized line of a row" true
    (CL.find cl ~classid:9 ~line:1 = None);
  CL.remove_function cl ~fn:101;
  Alcotest.(check bool) "removed speculator's bit cleared" false
    (Tce_support.Bytemap.get (CL.entry cl ~classid:2 ~line:7).CL.speculate_map 1);
  Alcotest.(check (list int))
    "victim order"
    [ 202; 102; 200; 100; 103; 204; 104; 105 ]
    (CL.retire_value_class cl ~value_classid:42)

let test_dump_lists_materialized_entries () =
  let cl = mk () in
  ignore (CL.update cl ~classid:7 ~line:1 ~pos:3 ~value_classid:4);
  let d = CL.dump cl in
  Alcotest.(check bool) "dumped" true
    (List.exists (fun (c, l, _) -> c = 7 && l = 1) d)

let test_cc_sets_spread_classes () =
  (* regression for the set-indexing bug: consecutive ClassIDs must land in
     different sets, not all in set 0 *)
  let cl = mk () in
  let cc = CC.create ~config:{ CC.entries = 64; ways = 2 } () in
  for c = 0 to 31 do
    ignore (CC.access cc cl ~classid:c ~line:0 ~pos:1 ~value_classid:smi)
  done;
  (* warm pass must hit: 32 entries fit 64-entry cache iff well spread *)
  let hits0 = cc.CC.stats.hits in
  for c = 0 to 31 do
    ignore (CC.access cc cl ~classid:c ~line:0 ~pos:1 ~value_classid:smi)
  done;
  Alcotest.(check int) "all warm accesses hit" 32 (cc.CC.stats.hits - hits0)

let test_mass_invalidation () =
  (* one retirement sweeps many speculated entries at once *)
  let cl = mk () in
  for c = 0 to 19 do
    ignore (CL.update cl ~classid:c ~line:0 ~pos:2 ~value_classid:99);
    CL.add_speculation cl ~classid:c ~line:0 ~pos:2 ~fn:(1000 + c)
  done;
  let fns = CL.retire_value_class cl ~value_classid:99 in
  Alcotest.(check int) "all twenty speculators collected" 20 (List.length fns);
  Alcotest.(check bool) "all invalid" true
    (List.for_all
       (fun c -> not (CL.is_valid cl ~classid:c ~line:0 ~pos:2))
       (List.init 20 (fun c -> c)))

let prop_take_speculators_drains =
  QCheck.Test.make ~name:"take_speculators leaves an empty FunctionList"
    ~count:200
    QCheck.(pair (int_bound 7) (list (int_bound 50)))
    (fun (classid, fns) ->
      let cl = mk () in
      ignore (CL.update cl ~classid ~line:0 ~pos:1 ~value_classid:3);
      List.iter (fun fn -> CL.add_speculation cl ~classid ~line:0 ~pos:1 ~fn) fns;
      let got = CL.take_speculators cl ~classid ~line:0 ~pos:1 in
      let again = CL.take_speculators cl ~classid ~line:0 ~pos:1 in
      List.sort_uniq compare got = List.sort_uniq compare fns && again = [])

let () =
  Alcotest.run "core"
    [
      ( "class list",
        [
          Alcotest.test_case "first profile" `Quick test_first_profile;
          Alcotest.test_case "mono then break" `Quick test_still_mono_and_break;
          Alcotest.test_case "exception on speculated break" `Quick
            test_exception_on_speculated_break;
          Alcotest.test_case "remove function" `Quick test_remove_function;
          QCheck_alcotest.to_alcotest prop_valid_monotone;
          QCheck_alcotest.to_alcotest prop_classlist_matches_oracle;
        ] );
      ( "transition tree",
        [
          Alcotest.test_case "profile inheritance" `Quick test_inherit_profiles;
          Alcotest.test_case "invalidation propagates" `Quick
            test_propagate_invalidation;
          Alcotest.test_case "lazy children see breaks" `Quick
            test_propagation_skips_unmaterialized;
          Alcotest.test_case "retire value class" `Quick test_retire_value_class;
          Alcotest.test_case "claimed class peek" `Quick test_claimed_class_peek;
          Alcotest.test_case "speculation idempotent" `Quick
            test_add_speculation_idempotent;
          Alcotest.test_case "entry addresses" `Quick test_entry_addr_distinct;
          Alcotest.test_case "dump" `Quick test_dump_lists_materialized_entries;
          Alcotest.test_case "pinned addresses" `Quick test_addresses_pinned;
          Alcotest.test_case "sweep order" `Quick test_sweep_order;
          Alcotest.test_case "mass invalidation" `Quick test_mass_invalidation;
          QCheck_alcotest.to_alcotest prop_take_speculators_drains;
        ] );
      ( "class cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cc_hit_miss;
          Alcotest.test_case "eviction/writeback" `Quick
            test_cc_eviction_and_writeback;
          Alcotest.test_case "exception path" `Quick test_cc_exception_path;
          Alcotest.test_case "geometry validation" `Quick test_cc_geometry_validation;
          Alcotest.test_case "storage budget" `Quick test_cc_storage_budget;
          Alcotest.test_case "set spreading (regression)" `Quick
            test_cc_sets_spread_classes;
          QCheck_alcotest.to_alcotest prop_cc_transparent;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "basic" `Quick test_oracle_basic;
          Alcotest.test_case "retire" `Quick test_oracle_retire;
          Alcotest.test_case "retire sweep" `Quick test_oracle_retire_sweep;
        ] );
    ]
