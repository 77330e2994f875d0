(* The traced op: one program side run with the paper's protocol, with a
   span around each call into a layer's public function.

   [run] follows [Tce_metrics.Harness.run] step for step (one execution,
   counters on from the first instruction, the steady-state window diffed
   from a snapshot taken before the measured call), but splits
   [Engine.of_source] into parse, bytecode compile and engine creation so
   each gets its own span. The traced pass checks that its rows equal the
   untraced pass's rows on every simulated field, so the two cannot drift
   apart silently. *)

module H = Tce_metrics.Harness
module E = Tce_engine.Engine
module M = Tce_machine.Machine
module Counters = Tce_machine.Counters
module W = Tce_workloads.Workload

let run ~(config : E.config) (w : W.t) : H.result * E.t =
  let sp = Probe.start Probe.Parse in
  let ast = Tce_minijs.Parser.parse w.W.source in
  Probe.stop sp;
  let sp = Probe.start Probe.Bc_compile in
  let prog = Tce_jit.Bc_compile.compile ast in
  Probe.stop sp;
  let sp = Probe.start Probe.Create in
  let t = E.create ~config prog in
  Probe.stop sp;
  E.set_measuring t true;
  let sp = Probe.start Probe.Run_main in
  ignore (E.run_main t);
  Probe.stop sp;
  for _ = 1 to w.W.iterations - 1 do
    let sp = Probe.start Probe.Warmup in
    ignore (E.call_by_name t "bench" [||]);
    Probe.stop sp
  done;
  let snap = Counters.copy t.E.counters in
  let m = t.E.mach in
  let l1d_a0 = m.M.l1d.Tce_machine.Cache.stats.accesses
  and l1d_h0 = m.M.l1d.Tce_machine.Cache.stats.hits
  and l1i_a0 = m.M.l1i.Tce_machine.Cache.stats.accesses
  and l2_a0 = m.M.l2.Tce_machine.Cache.stats.accesses
  and l2_h0 = m.M.l2.Tce_machine.Cache.stats.hits
  and l2_m0 = m.M.l2.Tce_machine.Cache.stats.misses
  and dtlb_a0 = m.M.dtlb.Tce_machine.Tlb.stats.accesses
  and dtlb_h0 = m.M.dtlb.Tce_machine.Tlb.stats.hits
  and cc_a0 = t.E.cc.Tce_core.Class_cache.stats.accesses
  and cc_h0 = t.E.cc.Tce_core.Class_cache.stats.hits in
  let cycles0 = E.opt_cycles t in
  let sp = Probe.start Probe.Measure in
  let v = E.call_by_name t "bench" [||] in
  Probe.stop sp;
  E.set_measuring t false;
  let checksum = Tce_vm.Heap.to_display_string t.E.heap v in
  let cw = t.E.counters in
  let whole_cycles = float_of_int (E.opt_cycles t) +. E.baseline_cycles t in
  let c = Counters.since cw snap in
  let opt_cycles = E.opt_cycles t - cycles0 in
  let baseline_cycles =
    float_of_int c.Counters.baseline_instrs
    *. config.E.mach_cfg.Tce_machine.Config.baseline_cpi
  in
  let total_cycles = float_of_int opt_cycles +. baseline_cycles in
  let rate hits accesses =
    if accesses = 0 then 1.0 else float_of_int hits /. float_of_int accesses
  in
  let l1d_a = m.M.l1d.Tce_machine.Cache.stats.accesses - l1d_a0
  and l1d_h = m.M.l1d.Tce_machine.Cache.stats.hits - l1d_h0
  and l1i_a = m.M.l1i.Tce_machine.Cache.stats.accesses - l1i_a0
  and l2_a = m.M.l2.Tce_machine.Cache.stats.accesses - l2_a0
  and l2_h = m.M.l2.Tce_machine.Cache.stats.hits - l2_h0
  and l2_m = m.M.l2.Tce_machine.Cache.stats.misses - l2_m0
  and dtlb_a = m.M.dtlb.Tce_machine.Tlb.stats.accesses - dtlb_a0
  and dtlb_h = m.M.dtlb.Tce_machine.Tlb.stats.hits - dtlb_h0
  and cc_a = t.E.cc.Tce_core.Class_cache.stats.accesses - cc_a0
  and cc_h = t.E.cc.Tce_core.Class_cache.stats.hits - cc_h0 in
  let energy =
    H.energy_of ~c ~l1_accesses:(l1d_a + l1i_a) ~l2_accesses:l2_a
      ~mem_accesses:l2_m ~cc_accesses:cc_a ~total_cycles
  in
  let mono_p, mono_e, poly_p, poly_e = Counters.classify_obj_loads c t.E.oracle in
  let hs = t.E.heap.Tce_vm.Heap.stats in
  ( {
      H.workload = w;
      mechanism = config.E.mechanism;
      checksum;
      whole_cycles;
      whole_instrs = Counters.total_instrs cw;
      whole_guards = cw.Counters.guards_obj_load;
      whole_by_cat = Array.copy cw.Counters.by_cat;
      by_cat = Array.copy c.Counters.by_cat;
      by_check_kind = Array.copy c.Counters.by_check_kind;
      opt_instrs = Counters.opt_instrs c;
      baseline_instrs = c.Counters.baseline_instrs;
      guards_obj_load = c.Counters.guards_obj_load;
      opt_cycles;
      baseline_cycles;
      total_cycles;
      opt_loads = c.Counters.opt_loads;
      opt_stores = c.Counters.opt_stores;
      opt_branches = c.Counters.opt_branches;
      opt_fp = c.Counters.opt_fp;
      deopts = c.Counters.deopts;
      cc_exceptions = c.Counters.cc_exception_deopts;
      cc_accesses = cc_a;
      cc_hit_rate = rate cc_h cc_a;
      l1d_hit_rate = rate l1d_h l1d_a;
      l2_hit_rate = rate l2_h l2_a;
      dtlb_hit_rate = rate dtlb_h dtlb_a;
      energy_nj = energy.Tce_machine.Energy.total_nj;
      energy_dynamic_nj = energy.Tce_machine.Energy.dynamic_nj;
      energy_leakage_nj = energy.Tce_machine.Energy.leakage_nj;
      fig3 = (mono_p, mono_e, poly_p, poly_e);
      obj_loads_total = c.Counters.obj_loads_total;
      obj_loads_first_line = c.Counters.obj_loads_first_line;
      hidden_classes =
        Tce_vm.Hidden_class.Registry.class_count t.E.heap.Tce_vm.Heap.reg;
      heap_object_bytes = hs.Tce_vm.Heap.object_bytes;
      heap_header_extra_bytes = hs.Tce_vm.Heap.header_extra_bytes;
      multi_line_objects = hs.Tce_vm.Heap.multi_line_objects;
      objects_allocated = hs.Tce_vm.Heap.objects_allocated;
    },
    t )
