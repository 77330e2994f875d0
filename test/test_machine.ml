(* Tests for the timing machinery: caches, TLBs, branch prediction, energy,
   costs, and the LIR executor's timing/functional behaviour. *)

open Tce_machine

(* --- cache model --- *)

let test_cache_cold_then_warm () =
  let c = Cache.create ~size_kb:1 ~ways:2 ~line_bytes:64 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x1000);
  Alcotest.(check bool) "warm hit" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x1038);
  Alcotest.(check bool) "different line misses" false (Cache.access c 0x2000)

let test_cache_lru_eviction () =
  (* 1KB, 2-way, 64B lines -> 8 sets; three lines in one set evict LRU *)
  let c = Cache.create ~size_kb:1 ~ways:2 ~line_bytes:64 in
  let a0 = 0x0000 and a1 = 0x0200 and a2 = 0x0400 in
  ignore (Cache.access c a0);
  ignore (Cache.access c a1);
  ignore (Cache.access c a0);  (* a0 most recent *)
  ignore (Cache.access c a2);  (* evicts a1 *)
  Alcotest.(check bool) "a0 survives" true (Cache.access c a0);
  Alcotest.(check bool) "a1 evicted" false (Cache.access c a1)

let test_cache_insert_is_free () =
  let c = Cache.create ~size_kb:1 ~ways:2 ~line_bytes:64 in
  Cache.insert c 0x3000;
  let before = c.Cache.stats.accesses in
  Alcotest.(check int) "insert does not count" 0 before;
  Alcotest.(check bool) "inserted line hits" true (Cache.access c 0x3000)

let test_cache_capacity () =
  (* sweeping twice the capacity thrashes; sweeping half fits *)
  let c = Cache.create ~size_kb:4 ~ways:4 ~line_bytes:64 in
  for i = 0 to 31 do
    ignore (Cache.access c (i * 64))
  done;
  let hits = ref 0 in
  for i = 0 to 31 do
    if Cache.access c (i * 64) then incr hits
  done;
  Alcotest.(check int) "2KB re-sweep fully hits in 4KB cache" 32 !hits

let test_tlb () =
  let t = Tlb.create ~entries:2 in
  Alcotest.(check bool) "cold" false (Tlb.access t 0x1000);
  Alcotest.(check bool) "same page" true (Tlb.access t 0x1800);
  ignore (Tlb.access t 0x10000);
  ignore (Tlb.access t 0x20000);  (* evicts page of 0x1000 *)
  Alcotest.(check bool) "evicted" false (Tlb.access t 0x1000)

(* --- memoized lookups vs full-scan reference models --- *)

(* Cache and Tlb check a remembered way / entry before their full lookup.
   These reference models, written independently of both, scan every way
   (every entry) on every lookup with the same LRU victim policy: the last
   empty way if any, else the first way with the strictly smallest stamp. *)

let ref_find (tags : int array) tag =
  let rec go w = if w >= Array.length tags then -1 else if tags.(w) = tag then w else go (w + 1) in
  go 0

let ref_victim (tags : int array) (lru : int array) =
  let empty = ref (-1) in
  Array.iteri (fun w tag -> if tag = -1 then empty := w) tags;
  if !empty >= 0 then !empty
  else begin
    let v = ref 0 in
    Array.iteri (fun w stamp -> if stamp < lru.(!v) then v := w) lru;
    !v
  end

type ref_model = {
  r_sets : int;
  r_shift : int;
  r_tags : int array array;
  r_lru : int array array;
  mutable r_clock : int;
  mutable r_accesses : int;
  mutable r_hits : int;
  mutable r_misses : int;
}

let ref_model ~sets ~ways ~shift =
  {
    r_sets = sets;
    r_shift = shift;
    r_tags = Array.init sets (fun _ -> Array.make ways (-1));
    r_lru = Array.init sets (fun _ -> Array.make ways 0);
    r_clock = 0;
    r_accesses = 0;
    r_hits = 0;
    r_misses = 0;
  }

let ref_fill r set tag =
  let v = ref_victim r.r_tags.(set) r.r_lru.(set) in
  r.r_tags.(set).(v) <- tag;
  r.r_lru.(set).(v) <- r.r_clock

let ref_access r addr =
  let tag = addr lsr r.r_shift in
  let set = tag mod r.r_sets in
  r.r_clock <- r.r_clock + 1;
  r.r_accesses <- r.r_accesses + 1;
  let w = ref_find r.r_tags.(set) tag in
  if w >= 0 then begin
    r.r_lru.(set).(w) <- r.r_clock;
    r.r_hits <- r.r_hits + 1;
    true
  end
  else begin
    r.r_misses <- r.r_misses + 1;
    ref_fill r set tag;
    false
  end

let ref_insert r addr =
  let tag = addr lsr r.r_shift in
  let set = tag mod r.r_sets in
  r.r_clock <- r.r_clock + 1;
  if ref_find r.r_tags.(set) tag < 0 then ref_fill r set tag

(* (size_kb, ways): 8, 24, 20, 48, 10 and 1 sets of 64-byte lines *)
let cache_geometries = [| (1, 2); (3, 2); (5, 4); (3, 1); (2, 3); (1, 16) |]

(* An op is (kind, line): kinds 0-6 access, 7-8 insert, 9 prefill a run of
   1-5 lines (Machine.prefill's insert pattern). Repeats of the previous
   line are frequent, so the remembered way is exercised both ways. *)
let ops_gen =
  QCheck.(list_of_size Gen.(int_range 0 600) (pair (int_bound 9) (int_bound 159)))

let prop_cache_memo =
  QCheck.Test.make ~name:"memoized Cache = full-scan reference" ~count:300
    QCheck.(pair (int_bound (Array.length cache_geometries - 1)) ops_gen)
    (fun (g, ops) ->
      let size_kb, ways = cache_geometries.(g) in
      let c = Cache.create ~size_kb ~ways ~line_bytes:64 in
      let r = ref_model ~sets:c.Cache.nsets ~ways ~shift:6 in
      let prev = ref 0 in
      List.iteri
        (fun i (kind, x) ->
          let line = if x mod 3 = 0 then !prev else x in
          prev := line;
          let addr = (line * 64) + (x land 63) in
          if kind <= 6 then begin
            let got = Cache.access c addr and want = ref_access r addr in
            if got <> want then
              QCheck.Test.fail_reportf "op %d (access line %d): hit %b, reference %b"
                i line got want
          end
          else if kind <= 8 then begin
            Cache.insert c addr;
            ref_insert r addr
          end
          else
            for l = line to line + (x mod 5) do
              Cache.insert c (l * 64);
              ref_insert r (l * 64)
            done)
        ops;
      let s = c.Cache.stats in
      (s.Cache.accesses, s.hits, s.misses) = (r.r_accesses, r.r_hits, r.r_misses)
      && c.Cache.clock = r.r_clock
      && c.Cache.tags = r.r_tags
      && c.Cache.lru = r.r_lru)

let prop_tlb_memo =
  QCheck.Test.make ~name:"memoized Tlb = full-scan reference" ~count:300
    QCheck.(pair (int_bound 5) ops_gen)
    (fun (g, ops) ->
      let entries = [| 1; 2; 3; 5; 8; 64 |].(g) in
      let t = Tlb.create ~entries in
      let r = ref_model ~sets:1 ~ways:entries ~shift:Tlb.page_bits in
      let prev = ref 0 in
      List.iteri
        (fun i (_, x) ->
          let page = if x mod 3 = 0 then !prev else x in
          prev := page;
          let addr = (page lsl Tlb.page_bits) + (x * 37) in
          let got = Tlb.access t addr and want = ref_access r addr in
          if got <> want then
            QCheck.Test.fail_reportf "op %d (page %d): hit %b, reference %b" i
              page got want)
        ops;
      let s = t.Tlb.stats in
      (s.Tlb.accesses, s.hits, s.misses) = (r.r_accesses, r.r_hits, r.r_misses)
      && t.Tlb.clock = r.r_clock
      && t.Tlb.pages = r.r_tags.(0)
      && t.Tlb.lru = r.r_lru.(0))

let test_branch_predictor_learns () =
  let b = Branch.create () in
  (* an always-taken branch is mispredicted at most twice, then learned *)
  let mispredicts = ref 0 in
  for _ = 1 to 50 do
    if not (Branch.record b ~fn:1 ~pc:10 ~taken:true) then incr mispredicts
  done;
  Alcotest.(check bool) "learns quickly" true (!mispredicts <= 2);
  (* alternating branch stays hard *)
  let b2 = Branch.create () in
  let m2 = ref 0 in
  for i = 1 to 50 do
    if not (Branch.record b2 ~fn:1 ~pc:11 ~taken:(i mod 2 = 0)) then incr m2
  done;
  Alcotest.(check bool) "alternating mispredicts a lot" true (!m2 >= 20)

(* --- config / costs / energy --- *)

let test_config_table2 () =
  let c = Config.default in
  Alcotest.(check int) "issue width" 4 c.Config.issue_width;
  Alcotest.(check int) "window" 128 c.Config.window_size;
  Alcotest.(check int) "ldst" 10 c.Config.outstanding_ldst;
  Alcotest.(check int) "l1 lat" 2 c.Config.l1_load_latency;
  Alcotest.(check int) "cc entries" 128 c.Config.class_cache_entries;
  Alcotest.(check int) "rows listed" 11 (List.length (Config.rows c))

let test_costs_positive () =
  List.iter
    (fun rt ->
      let c = Costs.rt_cost rt in
      Alcotest.(check bool) "positive instrs" true (c.Costs.instrs > 0);
      Alcotest.(check bool) "positive cycles" true (c.Costs.cycles > 0))
    [
      Tce_jit.Lir.Rt_alloc_object (1, 4);
      Rt_alloc_array (Tce_vm.Hidden_class.E_smi, 8);
      Rt_box_double;
      Rt_generic_get_prop "x";
      Rt_generic_set_prop "x";
      Rt_generic_get_elem;
      Rt_generic_set_elem;
      Rt_generic_binop Tce_minijs.Ast.Add;
      Rt_elem_store_slow;
      Rt_to_bool;
      Rt_builtin Tce_jit.Builtins.B_sqrt;
      Rt_fmod;
    ]

let test_energy_monotone () =
  let base =
    {
      Energy.instrs = 1000; alu_ops = 500; fp_ops = 50; branches = 100;
      l1_accesses = 300; l2_accesses = 10; mem_accesses = 2; cc_accesses = 20;
      cycles = 500.0;
    }
  in
  let e1 = Energy.compute base in
  let e2 = Energy.compute { base with Energy.instrs = 2000 } in
  let e3 = Energy.compute { base with Energy.cycles = 1000.0 } in
  Alcotest.(check bool) "total positive" true (e1.Energy.total_nj > 0.0);
  Alcotest.(check bool) "more instrs, more dynamic" true
    (e2.Energy.dynamic_nj > e1.Energy.dynamic_nj);
  Alcotest.(check bool) "more cycles, more leakage" true
    (e3.Energy.leakage_nj > e1.Energy.leakage_nj);
  Alcotest.(check (float 1e-9)) "total = dynamic + leakage" e1.Energy.total_nj
    (e1.Energy.dynamic_nj +. e1.Energy.leakage_nj)

(* --- counters --- *)

let test_counters () =
  let c = Counters.create () in
  Counters.add_cat c Tce_jit.Categories.C_check 5;
  Counters.add_cat c Tce_jit.Categories.C_other 10;
  Alcotest.(check int) "cat read" 5 (Counters.cat c Tce_jit.Categories.C_check);
  Alcotest.(check int) "opt total" 15 (Counters.opt_instrs c);
  c.Counters.baseline_instrs <- 100;
  Alcotest.(check int) "total" 115 (Counters.total_instrs c);
  Counters.record_obj_load c ~classid:1 ~line:0 ~pos:1;
  Counters.record_obj_load c ~classid:1 ~line:1 ~pos:2;
  Alcotest.(check int) "obj loads" 2 c.Counters.obj_loads_total;
  Alcotest.(check int) "first line" 1 c.Counters.obj_loads_first_line;
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.total_instrs c)

let test_counters_fig3_classification () =
  let c = Counters.create () in
  let o = Tce_core.Oracle.create () in
  (* slot (1,0,1): two classes -> poly; slot (1,0,2): one class -> mono elem *)
  Tce_core.Oracle.record o ~classid:1 ~line:0 ~pos:1 ~value_classid:5;
  Tce_core.Oracle.record o ~classid:1 ~line:0 ~pos:1 ~value_classid:6;
  Tce_core.Oracle.record o ~classid:1 ~line:0 ~pos:2 ~value_classid:5;
  Counters.record_obj_load c ~classid:1 ~line:0 ~pos:1;
  Counters.record_obj_load c ~classid:1 ~line:0 ~pos:1;
  Counters.record_obj_load c ~classid:1 ~line:0 ~pos:2;
  let mono_p, mono_e, poly_p, poly_e = Counters.classify_obj_loads c o in
  Alcotest.(check (list int)) "classification" [ 0; 1; 2; 0 ]
    [ mono_p; mono_e; poly_p; poly_e ]

(* --- machine timing sanity (via the engine, which owns program setup) --- *)

module E = Tce_engine.Engine

let run_cycles src =
  let t = E.of_source src in
  E.set_measuring t false;
  ignore (E.run_main t);
  for _ = 1 to 9 do
    ignore (E.call_by_name t "bench" [||])
  done;
  E.reset_measurement t;
  let c0 = E.opt_cycles t in
  E.set_measuring t true;
  ignore (E.call_by_name t "bench" [||]);
  E.opt_cycles t - c0

let test_timing_scales_with_work () =
  let src n =
    Printf.sprintf
      "function bench() { var s = 0; for (var i = 0; i < %d; i++) { s = (s + i) & 65535; } return s; }"
      n
  in
  let c1 = run_cycles (src 100) in
  let c2 = run_cycles (src 1000) in
  Alcotest.(check bool) "work scales cycles" true (c2 > 5 * c1);
  Alcotest.(check bool) "cycles positive" true (c1 > 0)

let test_timing_deterministic () =
  let src =
    "function bench() { var s = 0.0; for (var i = 0; i < 500; i++) { s = s + i * 0.25; } return s; }"
  in
  Alcotest.(check int) "same cycles for same program" (run_cycles src)
    (run_cycles src)

let test_fp_latency_visible () =
  (* a dependent FDiv chain must be slower than a dependent FAdd chain *)
  let adds =
    run_cycles
      "function bench() { var s = 1.5; for (var i = 0; i < 400; i++) { s = s + 1.25; } return s; }"
  in
  let divs =
    run_cycles
      "function bench() { var s = 1.5e30; for (var i = 0; i < 400; i++) { s = s / 1.01; } return s; }"
  in
  Alcotest.(check bool)
    (Printf.sprintf "fdiv chain slower (%d > %d)" divs adds)
    true (divs > adds)

let test_memory_latency_visible () =
  (* random-ish strided traversal of a large array must cost more per
     element than a small resident one *)
  let src size =
    Printf.sprintf
      {|
var a = array_new(%d);
for (var i = 0; i < %d; i++) { a[i] = (i * 7919 + 13) %% %d; }
function bench() {
  var x = 0;
  for (var k = 0; k < 2000; k++) { x = a[x]; }
  return x;
}
|}
      size size size
  in
  let small = run_cycles (src 256) in
  let big = run_cycles (src 65536) in
  Alcotest.(check bool)
    (Printf.sprintf "cache misses cost cycles (%d > %d)" big small)
    true (big > small + 1000)


(* --- direct LIR timing tests (hand-built machine + host) --- *)

let mk_machine () =
  let heap = Tce_vm.Heap.create () in
  let cl = Tce_core.Class_list.create heap.Tce_vm.Heap.mem in
  let cc = Tce_core.Class_cache.create () in
  let oracle = Tce_core.Oracle.create () in
  let counters = Counters.create () in
  (heap, Machine.create ~heap ~cc ~cl ~oracle ~counters ())

let stub_host : Machine.host =
  {
    Machine.call_fn = (fun _ _ _ _ _ -> 0);
    resume = (fun ~opt_id:_ ~bc_pc:_ ~regs:_ ~result:_ -> 0);
    rt_call = (fun _ _ _ _ _ -> 0);
    on_cc_exception = (fun _ -> ());
    on_deopt = (fun _ -> ());
    is_invalidated = (fun _ -> false);
  }

let mk_func code ~n_regs =
  {
    Tce_jit.Lir.fn_id = 0;
    opt_id = 0;
    name = "lir-test";
    code = Array.of_list (List.map (Tce_jit.Lir.inst Tce_jit.Categories.C_other) code);
    deopts = [||];
    reprs = [||];
    n_regs;
    n_fregs = 1;
    code_addr = 0x5000_0000;
    spec_deps = [];
    invalidated = false;
    deopt_hits = 0;
  }

let run_lir code ~n_regs =
  let _, m = mk_machine () in
  let f = mk_func code ~n_regs in
  (* first run warms the I-cache (cold code is a front-end bubble per line);
     measure the second, steady-state run *)
  ignore (Machine.run m stub_host f 0 [||] [||] 0);
  let c0 = m.Machine.cycle in
  ignore (Machine.run m stub_host f 0 [||] [||] 0);
  m.Machine.cycle - c0

let test_dispatch_width () =
  (* 400 independent immediates on a 4-wide machine: ~100 cycles *)
  let open Tce_jit.Lir in
  let code =
    List.init 400 (fun i -> MovImm (1 + (i mod 8), i)) @ [ Ret 1 ]
  in
  let cycles = run_lir code ~n_regs:16 in
  Alcotest.(check bool)
    (Printf.sprintf "4-wide dispatch (%d cycles for 400 instrs)" cycles)
    true
    (cycles >= 100 && cycles <= 130)

let test_dependence_chain_serializes () =
  let open Tce_jit.Lir in
  let chain =
    MovImm (1, 0) :: List.init 400 (fun _ -> Alu (Add, 1, 1, Imm 1)) @ [ Ret 1 ]
  in
  let cycles = run_lir chain ~n_regs:4 in
  (* one ALU per cycle on the critical path; the dispatch clock trails the
     completion front by at most the window size (128) *)
  Alcotest.(check bool)
    (Printf.sprintf "dependent adds serialize (%d cycles)" cycles)
    true
    (cycles >= 400 - 130 && cycles <= 420)

let test_load_port_limit () =
  let open Tce_jit.Lir in
  let heap, m = mk_machine () in
  (* one resident line, 300 independent loads: 1 load/cycle port bound *)
  let addr = Tce_vm.Mem.allocate heap.Tce_vm.Heap.mem ~bytes:64 ~align:64 in
  Tce_vm.Mem.store heap.Tce_vm.Heap.mem addr 7;
  let code =
    MovImm (1, addr) :: List.init 300 (fun i -> Load (2 + (i mod 4), 1, 0))
    @ [ Ret 1 ]
  in
  let f = mk_func code ~n_regs:8 in
  ignore (Machine.run m stub_host f 0 [||] [||] 0);
  let c0 = m.Machine.cycle in
  ignore (Machine.run m stub_host f 0 [||] [||] 0);
  let cycles = m.Machine.cycle - c0 in
  Alcotest.(check bool)
    (Printf.sprintf "load port bound (%d cycles for 300 loads)" cycles)
    true (cycles >= 295)

let test_fused_branch_executes () =
  let open Tce_jit.Lir in
  (* loop: r1 counts down from 50; branch back while non-zero *)
  let code =
    [
      MovImm (1, 50);  (* 0 *)
      Alu (Sub, 1, 1, Imm 1);  (* 1 *)
      Branch (Ne, 1, Imm 0, 1);  (* 2 *)
      Ret 1;  (* 3 *)
    ]
  in
  let _, m = mk_machine () in
  let v = Machine.run m stub_host (mk_func code ~n_regs:4) 0 [||] [||] 0 in
  Alcotest.(check int) "loop terminated with 0" 0 v

let test_special_store_fires_class_cache () =
  let open Tce_jit.Lir in
  let heap, m = mk_machine () in
  let base =
    Tce_vm.Hidden_class.Registry.fresh heap.Tce_vm.Heap.reg
      ~kind:Tce_vm.Hidden_class.K_object ~name:"M" ~prop_names:[| "x" |]
  in
  let o = Tce_vm.Heap.alloc_object heap base ~reserve_props:1 in
  let code =
    [
      MovImm (1, o);
      MovImm (2, Tce_vm.Value.smi 9);
      MovClassID 2;
      StoreClassCache (1, 7 (* slot 1, -1 tag *), Reg 2, 0);
      Ret 2;
    ]
  in
  let f =
    { (mk_func code ~n_regs:4) with
      Tce_jit.Lir.deopts =
        [| { Tce_jit.Lir.bc_pc = 0; result_into = None;
             reason =
               Tce_attr.Reason.make Tce_attr.Reason.K_check_map
                 Tce_attr.Reason.C_not_class ~pc:0 } |] }
  in
  ignore (Machine.run m stub_host f 0 [||] [||] 0);
  Alcotest.(check int) "one CC access" 1 m.Machine.cc.Tce_core.Class_cache.stats.accesses;
  Alcotest.(check (option int)) "profiled as SMI" (Some Tce_vm.Layout.smi_classid)
    (Tce_core.Class_list.profiled_class m.Machine.cl ~classid:base.Tce_vm.Hidden_class.id
       ~line:0 ~pos:1);
  (* and the store really wrote through *)
  Alcotest.(check (option int)) "value stored" (Some 9)
    (Option.map Tce_vm.Value.smi_value (Tce_vm.Heap.get_prop heap o "x"))

let () =
  Alcotest.run "machine"
    [
      ( "cache",
        [
          Alcotest.test_case "cold/warm" `Quick test_cache_cold_then_warm;
          Alcotest.test_case "LRU" `Quick test_cache_lru_eviction;
          Alcotest.test_case "insert (nursery)" `Quick test_cache_insert_is_free;
          Alcotest.test_case "capacity" `Quick test_cache_capacity;
        ] );
      ("tlb", [ Alcotest.test_case "basic" `Quick test_tlb ]);
      ( "memoized lookups",
        [
          QCheck_alcotest.to_alcotest prop_cache_memo;
          QCheck_alcotest.to_alcotest prop_tlb_memo;
        ] );
      ("branch", [ Alcotest.test_case "bimodal learning" `Quick test_branch_predictor_learns ]);
      ( "config/costs/energy",
        [
          Alcotest.test_case "Table 2" `Quick test_config_table2;
          Alcotest.test_case "costs positive" `Quick test_costs_positive;
          Alcotest.test_case "energy monotone" `Quick test_energy_monotone;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counters;
          Alcotest.test_case "fig3 classification" `Quick
            test_counters_fig3_classification;
        ] );
      ( "timing",
        [
          Alcotest.test_case "scales with work" `Quick test_timing_scales_with_work;
          Alcotest.test_case "deterministic" `Quick test_timing_deterministic;
          Alcotest.test_case "fp latency" `Quick test_fp_latency_visible;
          Alcotest.test_case "memory latency" `Quick test_memory_latency_visible;
        ] );
      ( "lir executor",
        [
          Alcotest.test_case "dispatch width" `Quick test_dispatch_width;
          Alcotest.test_case "dependence chains" `Quick
            test_dependence_chain_serializes;
          Alcotest.test_case "load port" `Quick test_load_port_limit;
          Alcotest.test_case "branch loop" `Quick test_fused_branch_executes;
          Alcotest.test_case "special store" `Quick
            test_special_store_fires_class_cache;
        ] );
    ]
