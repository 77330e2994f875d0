(** Cycle-level execution of optimized (LIR) code: a 4-wide in-order-dispatch
    / out-of-order-completion scoreboard with a 128-entry window, load/store
    queue, L1I/L1D/L2 caches, D/I-TLBs, a bimodal branch predictor and the
    Class Cache — parameters from {!Config} (the paper's Table 2).

    The model dispatches instructions in program order at up to
    [issue_width] per cycle, blocks dispatch when the window is full, lets
    results complete out of order at [dispatch + max(dep stalls) + latency],
    and restarts the front end on branch mispredictions — a standard
    research-grade approximation of a Nehalem-class core (MARSS substitute,
    see DESIGN.md).

    The executor runs the {!Predecode} stream, not [Lir.func.code] — see
    lib/machine/README.md for the pre-decode invariants. Two executors
    share these semantics: {!run_slow}, the per-instruction reference loop
    (profiler, armed fault injector, streams the template layout rejects),
    and the templated executor, which compiles each basic block into
    direct-threaded closures — every step tail-calls its successor, a
    terminator tail-calls the successor block's entry — and defers the
    per-instruction counters to a per-block entry count folded into
    {!Counters} when the outermost {!run} exits (README, "Template fusion
    invariants").

    The templated executor allocates nothing per simulated instruction
    outside guest and runtime calls (which allocate their argument vectors,
    and whatever the called code allocates): the window and store queue are
    int ring buffers, MSHR fill tracking is an {!Tce_support.Int_table},
    the memory model's loops are top-level int functions, FP results stay
    unboxed, and the function result comes back down the closure chain as
    an immediate [Value.t]. The budget is gated by test/test_fastpath.ml
    ("optimized-tier allocation budget"). *)

open Tce_vm
open Tce_jit
module Profile = Tce_prof.Profile

exception Trap of string

(** A misspeculation exception with the faulting-store context attached
    (what broke, where, and who has to deopt) — the attribution ledger's
    causal-chain anchor. *)
type cc_exn_info = {
  cc_classid : int;
  cc_line : int;
  cc_pos : int;
  cc_value_classid : int;
  cc_victims : int list;  (** opt_ids from the slot's FunctionList *)
}

(** Callbacks into the engine (tier driver). *)
type host = {
  call_fn : int -> Value.t array -> Value.t;
      (** call guest function [fn_id] with [this :: args] *)
  resume : opt_id:int -> bc_pc:int -> regs:Value.t array ->
           result:(int * Value.t) option -> Value.t;
      (** deoptimization: resume the interpreter mid-function *)
  rt_call : Lir.rt -> Value.t array -> float array -> Value.t;
      (** execute a runtime stub functionally; its double result is written
          to the machine's [rt_fres] cell *)
  on_cc_exception : cc_exn_info -> unit;
      (** invalidate the optimized code instances in [cc_victims] *)
  on_deopt : int -> unit;
      (** a check failed in this opt_id (engine discards code that
          deoptimizes repeatedly, like V8's deopt counters) *)
  is_invalidated : int -> bool;  (** has this opt_id been invalidated? *)
}

(** {2 Superinstruction templates}

    Per-run mutable state threaded through the step closures. The closures
    themselves are compiled once per installed compilation (they capture
    the machine, the [Lir.func], all operands as immediates and their
    continuation); everything that is fresh per {!run} call — the host and
    the register files — travels in this record. *)
type tenv = {
  mutable te_host : host;
  mutable te_regs : Value.t array;
  mutable te_fregs : float array;
  mutable te_ready : int array;
  mutable te_fready : int array;
}

(** A direct-threaded step: executes its instruction, then tail-calls its
    continuation (the next step, or a successor block's entry); the value
    that comes back up the chain is the function's result. *)
type tstep = tenv -> Value.t

type tblock = {
  mutable tb_count : int;
      (** entries while measuring since the last fold; the block sits on
          the machine's dirty stack exactly when this is > 0 *)
  tb_sum : Template.summary;
      (** en-bloc counter summary, folded [tb_count] times into
          {!Counters} when the outermost {!run} exits *)
}

type template = {
  tp_pf : Predecode.func;  (** identity guard, like the pre-decode cache *)
  tp_entry : tstep;  (** entry closure of the block at pc 0 *)
}

type t = {
  cfg : Config.t;
  heap : Heap.t;
  cc : Tce_core.Class_cache.t;
  cl : Tce_core.Class_list.t;
  oracle : Tce_core.Oracle.t;
  counters : Counters.t;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  dtlb : Tlb.t;
  itlb : Tlb.t;
  bp : Branch.t;
  mechanism : bool;  (** Class Cache mechanism on/off *)
  (* timing state *)
  mutable cycle : int;  (** current dispatch cycle *)
  mutable clock_base_instrs : int;
      (** baseline-tier instructions executed since creation — always
          counted (unlike [counters.baseline_instrs], which is gated on
          [measuring]) so the engine's observability/backoff clock is
          independent of the measurement protocol *)
  mutable slots : int;  (** instructions dispatched in this cycle *)
  mutable load_slots : int;  (** loads dispatched this cycle (1 load port) *)
  mutable store_slots : int;  (** stores dispatched this cycle (1 store port) *)
  (* completion times of in-flight instructions: a ring buffer (the run
     loop pushes ≤ 1 entry per dispatched instruction, so the capacity
     [window_size + 1] rounded to a power of two never overflows) *)
  win_buf : int array;
  win_mask : int;
  mutable win_head : int;
  mutable win_len : int;
  (* completion times of in-flight stores (same ring representation) *)
  stq_buf : int array;
  stq_mask : int;
  mutable stq_head : int;
  mutable stq_len : int;
  mutable last_iline : int;  (** last instruction-cache line fetched *)
  fills : Tce_support.Int_table.t;
      (** in-flight line fills: line -> cycle the data arrives (MSHR
          merging: a second access to a line being filled waits for the
          fill instead of seeing an instant hit); 0 = no fill recorded
          (completion cycles are always >= 1) *)
  pre_cache : (int, Predecode.func) Hashtbl.t;
      (** decoded streams keyed by [opt_id] (fresh per compilation; the
          physical-equality guard in {!install} covers id reuse) *)
  mutable measuring : bool;
  trace : Tce_obs.Trace.t;
      (** observability sink (deopt / OSR events; never affects timing) *)
  fault : Tce_fault.Injector.t;
      (** fault injector ({!Tce_fault.Injector.null} = disarmed): OSR-fail
          injection and the retire-path re-validation of special stores *)
  attr : Tce_attr.Ledger.t;
      (** attribution ledger ({!Tce_attr.Ledger.null} = disabled): records
          each deopt's typed reason; never affects timing *)
  prof : Profile.t;
      (** cycle-attribution profiler ({!Tce_prof.Profile.null} = disabled):
          every site that advances [cycle] reports the delta; reads the
          clock, never writes timing state *)
  (* special registers (paper §4.2.1.2) *)
  mutable reg_classid : int;
  reg_classid_arr : int array;
  templates : bool;
      (** fuse pre-decoded streams into superinstruction templates
          (bit-identical to the per-instruction loop; a pure speedup) *)
  tpl_cache : (int, Predecode.func * template option) Hashtbl.t;
      (** compiled templates keyed like {!pre_cache}, with the decoded
          stream kept for the physical-equality guard; [None] = the stream
          was rejected by {!Template.layout} (stay on the slow loop) *)
  mutable env_pool : tenv array;
      (** stack of free per-run environments, [env_pool.(0 .. env_free-1)];
          reusing the register files avoids four [Array.make]s per guest
          call (registers are immediate [Value.t]s, so recycling is
          GC-transparent) *)
  mutable env_free : int;
  mutable dirty : tblock array;
      (** stack of template blocks entered while measuring since the last
          fold, [dirty.(0 .. dirty_len-1)] (slots above are stale) *)
  mutable dirty_len : int;
  mutable run_depth : int;
      (** {!run} calls live on the host stack; block counts fold into
          {!Counters} when this returns to 0 *)
  rt_fres : float array;
      (** one-element cell receiving a runtime stub's double result: a
          [float] returned through the host record would be boxed *)
}

(* Int-specialized max: [Stdlib.max] is polymorphic and compiles to a
   generic-compare C call — measurably hot at 2-5 uses per simulated
   instruction (dependency-stall arithmetic in both executors). *)
let[@inline] imax (a : int) (b : int) = if a >= b then a else b

let ring_capacity n =
  let rec go c = if c > n then c else go (c * 2) in
  go 16

let create ?(cfg = Config.default) ?(mechanism = true)
    ?(trace = Tce_obs.Trace.null) ?(fault = Tce_fault.Injector.null)
    ?(attr = Tce_attr.Ledger.null) ?(prof = Profile.null) ?(templates = true)
    ~heap ~cc ~cl ~oracle ~counters () =
  let win_cap = ring_capacity cfg.Config.window_size in
  let stq_cap = ring_capacity cfg.Config.outstanding_ldst in
  {
    cfg;
    heap;
    cc;
    cl;
    oracle;
    counters;
    l1d = Cache.create ~size_kb:cfg.dl1_kb ~ways:cfg.dl1_ways ~line_bytes:64;
    l1i = Cache.create ~size_kb:cfg.il1_kb ~ways:cfg.il1_ways ~line_bytes:64;
    l2 = Cache.create ~size_kb:cfg.l2_kb ~ways:cfg.l2_ways ~line_bytes:64;
    dtlb = Tlb.create ~entries:cfg.dtlb_entries;
    itlb = Tlb.create ~entries:cfg.itlb_entries;
    bp = Branch.create ();
    mechanism;
    cycle = 0;
    clock_base_instrs = 0;
    slots = 0;
    load_slots = 0;
    store_slots = 0;
    win_buf = Array.make win_cap 0;
    win_mask = win_cap - 1;
    win_head = 0;
    win_len = 0;
    stq_buf = Array.make stq_cap 0;
    stq_mask = stq_cap - 1;
    stq_head = 0;
    stq_len = 0;
    last_iline = -1;
    fills = Tce_support.Int_table.create ~size:4096 ();
    pre_cache = Hashtbl.create 64;
    measuring = true;
    trace;
    fault;
    attr;
    prof;
    reg_classid = 0;
    reg_classid_arr = Array.make 4 0;
    templates;
    tpl_cache = Hashtbl.create 64;
    env_pool = [||];
    env_free = 0;
    dirty = [||];
    dirty_len = 0;
    run_depth = 0;
    rt_fres = [| 0.0 |];
  }

(** {2 Pre-decode cache} *)

let decode_into t (f : Lir.func) =
  let pf = Predecode.decode f in
  Hashtbl.replace t.pre_cache f.Lir.opt_id pf;
  pf

(** Decoded stream for [f], decoding at most once per compilation. Keyed by
    [opt_id] — fresh per compile — with a physical-equality guard so a
    rebuilt [Lir.func] under a reused id (unit tests) is re-decoded. *)
let install t (f : Lir.func) =
  (* [find], not [find_opt]: this runs on every optimized call *)
  match Hashtbl.find t.pre_cache f.Lir.opt_id with
  | pf when pf.Predecode.lf == f -> pf
  | _ -> decode_into t f
  | exception Not_found -> decode_into t f

(* --- timing primitives --- *)

(* dispatch-port kinds, matching Predecode.kind_* *)
let kind_load = Predecode.kind_load
let kind_store = Predecode.kind_store

let advance t =
  t.cycle <- t.cycle + 1;
  t.slots <- 0;
  t.load_slots <- 0;
  t.store_slots <- 0

(** Dispatch one instruction; returns its dispatch cycle. Loads and stores
    additionally contend for their single AGU/port (Nehalem: one load port,
    one store port), so memory-heavy code is port-bound — which is what
    makes removing Check Map loads profitable. *)
let dispatch_k t kind =
  if t.slots >= t.cfg.issue_width then advance t;
  if kind = kind_load then while t.load_slots >= 1 do advance t done
  else if kind = kind_store then while t.store_slots >= 1 do advance t done;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_dispatch t.cycle;
  if t.win_len >= t.cfg.window_size then begin
    (* window full: retire the oldest in-flight instruction *)
    let c = Array.unsafe_get t.win_buf t.win_head in
    t.win_head <- (t.win_head + 1) land t.win_mask;
    t.win_len <- t.win_len - 1;
    if c > t.cycle then begin
      t.cycle <- c;
      t.slots <- 0;
      t.load_slots <- 0;
      t.store_slots <- 0
    end
  end;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_window t.cycle;
  t.slots <- t.slots + 1;
  if kind = kind_load then t.load_slots <- t.load_slots + 1
  else if kind = kind_store then t.store_slots <- t.store_slots + 1;
  t.cycle

let complete t c =
  Array.unsafe_set t.win_buf ((t.win_head + t.win_len) land t.win_mask) c;
  t.win_len <- t.win_len + 1

(** Completion time of a data access to [addr] issued at [start], through
    DTLB + D-cache hierarchy, with MSHR merging of accesses to lines whose
    fill is still in flight. *)
let daccess t ~start addr =
  let tlb_hit = Tlb.access t.dtlb addr in
  let line = addr lsr 6 in
  let hit_l1 = Cache.access t.l1d addr in
  let lat =
    if hit_l1 then t.cfg.l1_load_latency
    else if Cache.access t.l2 addr then t.cfg.l1_load_latency + t.cfg.l2_latency
    else t.cfg.l1_load_latency + t.cfg.l2_latency + t.cfg.mem_latency
  in
  let lat = if tlb_hit then lat else lat + t.cfg.tlb_miss_penalty in
  if hit_l1 then begin
    let ready = Tce_support.Int_table.find t.fills line 0 in
    if ready > start then
      (* the line is still being filled: wait for it *)
      ready + t.cfg.l1_load_latency
    else start + lat
  end
  else begin
    let done_at = start + lat in
    Tce_support.Int_table.set t.fills line done_at;
    done_at
  end

(** Instruction fetch, slow path: called only when crossing into a new
    I-cache line (the line compare is inlined at the call sites). *)
let ifetch_slow t line =
  t.last_iline <- line;
  let addr = line lsl 6 in
  let tlb_hit = Tlb.access t.itlb addr in
  let hit = Cache.access t.l1i addr in
  if not hit then begin
    (* front-end bubble *)
    let pen =
      if Cache.access t.l2 addr then t.cfg.l2_latency
      else t.cfg.l2_latency + t.cfg.mem_latency
    in
    t.cycle <- t.cycle + pen;
    t.slots <- 0;
    t.load_slots <- 0;
    t.store_slots <- 0
  end;
  if not tlb_hit then begin
    t.cycle <- t.cycle + t.cfg.tlb_miss_penalty;
    t.slots <- 0;
    t.load_slots <- 0;
    t.store_slots <- 0
  end;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_icache t.cycle

let cat_check_idx = Categories.index Categories.C_check

(** Count one dispatched instruction from its packed {!Predecode} meta. *)
let count_meta t m =
  if t.measuring then begin
    let c = t.counters in
    let ci = m land Predecode.meta_cat_mask in
    c.Counters.by_cat.(ci) <- c.Counters.by_cat.(ci) + 1;
    if ci = cat_check_idx then begin
      let slot = (m lsr Predecode.meta_check_shift) land 7 in
      c.by_check_kind.(slot) <- c.by_check_kind.(slot) + 1
    end;
    if m land Predecode.meta_guards_bit <> 0 then
      c.guards_obj_load <- c.guards_obj_load + 1;
    match (m lsr Predecode.meta_class_shift) land 7 with
    | 1 -> c.opt_loads <- c.opt_loads + 1
    | 2 -> c.opt_stores <- c.opt_stores + 1
    | 3 -> c.opt_branches <- c.opt_branches + 1
    | 4 -> c.opt_fp <- c.opt_fp + 1
    | _ -> ()
  end

(** Charge a runtime-stub cost: serializes the pipeline. The cost is
    attributed to category index [cat_idx] (e.g. boxing stubs count as
    Tags/Untags); the profiler books it under [pcost] (this take also
    absorbs the caller's argument-readiness serialization, which advances
    the clock just before charging). *)
let charge_rt_i t ~pcost ~cat_idx ~instrs ~cycles =
  if t.measuring then
    t.counters.Counters.by_cat.(cat_idx) <-
      t.counters.Counters.by_cat.(cat_idx) + instrs;
  t.cycle <- t.cycle + cycles;
  t.slots <- 0;
  t.load_slots <- 0;
  t.store_slots <- 0;
  if Profile.on t.prof then Profile.take t.prof pcost t.cycle

let cat_other_idx = Categories.index Categories.C_other

(** Model a fresh allocation as nursery-resident: the lines are inserted
    into the D-caches without cost. (V8's new space is recycled by the
    scavenger and stays cache-resident in steady state; our bump allocator
    would otherwise make every allocation a cold DRAM miss.) *)
let prefill t ~addr ~bytes =
  let first = addr lsr 6 and last = (addr + bytes - 1) lsr 6 in
  for line = first to last do
    Cache.insert t.l1d (line lsl 6);
    Cache.insert t.l2 (line lsl 6)
  done

exception Cc_exception of cc_exn_info

(* --- the executor --- *)

let[@inline] alu_apply (a : Lir.alu) x y =
  match a with
  | Lir.Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then 0 else x / y
  | Rem -> if y = 0 then 0 else Stdlib.( mod ) x y
  | And -> x land y
  | Or -> x lor y
  | Xor -> x lxor y
  | Shl -> x lsl (y land 31)
  | Shr -> (x land 0xffff_ffff) lsr (y land 31)  (* JS >>> on uint32 *)
  | Sar -> x asr (y land 31)

let[@inline] cond_apply (c : Lir.cond) (x : int) (y : int) =
  match c with
  | Lir.Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y
  | Bit_set -> x land y <> 0
  | Bit_clear -> x land y = 0

let[@inline] fcond_apply (c : Lir.fcond) (x : float) (y : float) =
  match c with
  | Lir.FEq -> x = y
  | FNe -> x <> y
  | FLt -> x < y
  | FLe -> x <= y
  | FGt -> x > y
  | FGe -> x >= y
  (* negated forms: true on NaN (unordered) *)
  | FNlt -> not (x < y)
  | FNle -> not (x <= y)
  | FNgt -> not (x > y)
  | FNge -> not (x >= y)

(* Full-width shifts for tag arithmetic: [sc] 0 = lsl, 1 = lsr, 2 = asr. *)
let[@inline] sh64_apply sc x y =
  if sc = 0 then x lsl y else if sc = 1 then x lsr y else x asr y

let flat_lat = 3 (* FP add/sub/cvt latency *)
let fsqrt_lat = 25

(** Reconstruct the interpreter frame for a deopt of [f] and resume. *)
let do_deopt t host (f : Lir.func) regs fregs deopt_id ~result =
  let info = f.Lir.deopts.(deopt_id) in
  if Tce_obs.Trace.on t.trace then
    Tce_obs.Trace.emit t.trace
      (Tce_obs.Trace.Deopt
         {
           reason = Tce_attr.Reason.to_string info.Lir.reason;
           func = f.Lir.name;
           pc = info.Lir.bc_pc;
           classid = info.Lir.reason.Tce_attr.Reason.classid;
         });
  Tce_attr.Ledger.record_deopt t.attr ~fn:f.Lir.name ~reason:info.Lir.reason;
  host.on_deopt f.Lir.opt_id;
  t.clock_base_instrs <- t.clock_base_instrs + Costs.deopt_transition_instrs;
  if t.measuring then begin
    t.counters.deopts <- t.counters.deopts + 1;
    t.counters.baseline_instrs <-
      t.counters.baseline_instrs + Costs.deopt_transition_instrs;
    if Profile.on t.prof then
      Profile.base_extra t.prof Profile.extra_deopt_transition
        Costs.deopt_transition_instrs
  end;
  t.cycle <- t.cycle + t.cfg.deopt_penalty;
  (* Fault: the OSR transition itself fails once and is retried via the
     slow path — semantics preserved by construction, one extra frame
     reconstruction's worth of cost (timing-only, gracefully degraded). *)
  if
    Tce_fault.Injector.armed t.fault
    && Tce_fault.Injector.fire t.fault Tce_fault.Point.Osr_fail
  then begin
    t.clock_base_instrs <- t.clock_base_instrs + Costs.deopt_transition_instrs;
    if t.measuring then begin
      t.counters.baseline_instrs <-
        t.counters.baseline_instrs + Costs.deopt_transition_instrs;
      if Profile.on t.prof then
        Profile.base_extra t.prof Profile.extra_deopt_transition
          Costs.deopt_transition_instrs
    end;
    t.cycle <- t.cycle + t.cfg.deopt_penalty
  end;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_deopt t.cycle;
  t.slots <- 0;
  let n = Array.length f.Lir.reprs in
  let vals =
    Array.init n (fun i ->
        match f.Lir.reprs.(i) with
        | Lir.R_tagged -> regs.(i)
        | Lir.R_double -> Heap.number t.heap fregs.(i))
  in
  let result =
    match result with
    | Some v -> Some ((match info.Lir.result_into with Some r -> r | None -> -1), v)
    | None -> None
  in
  host.resume ~opt_id:f.Lir.opt_id ~bc_pc:info.Lir.bc_pc ~regs:vals ~result

let do_store t d ~addr ~start ~word =
  (* store-buffer pressure: block when [outstanding_ldst] stores in flight *)
  if t.stq_len >= t.cfg.outstanding_ldst then begin
    let c = Array.unsafe_get t.stq_buf t.stq_head in
    t.stq_head <- (t.stq_head + 1) land t.stq_mask;
    t.stq_len <- t.stq_len - 1;
    if c > t.cycle then begin
      t.cycle <- c;
      t.slots <- 0
    end
  end;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_storeq t.cycle;
  Mem.store t.heap.Heap.mem addr word;
  let done_at = daccess t ~start:(imax d start) addr in
  Array.unsafe_set t.stq_buf ((t.stq_head + t.stq_len) land t.stq_mask) done_at;
  t.stq_len <- t.stq_len + 1;
  complete t (imax d start + 1)

(* Timing half of a two-operand FP op. The value half is written inline at
   each call site: passing the operator as a closure boxed both operands
   and the result on every execution. *)
let falu_time t d fready fd fa fb lat =
  let start = imax d (imax fready.(fa) fready.(fb)) in
  fready.(fd) <- start + lat;
  complete t fready.(fd)

(* Operands of a guest or runtime call: wait until they are ready
   ([serialize_on]), then copy them into a fresh argument vector
   ([gather]). Top-level loops, because an [Array.iter] / [Array.map]
   closure over the register file would be one more allocation per call. *)
let rec serialize_on t (ready : int array) (argr : int array) (i : int) =
  if i < Array.length argr then begin
    let c = ready.(argr.(i)) in
    if c > t.cycle then t.cycle <- c;
    serialize_on t ready argr (i + 1)
  end

let gather (regs : Value.t array) (argr : int array) : Value.t array =
  let a = Array.make (Array.length argr) 0 in
  for i = 0 to Array.length argr - 1 do
    a.(i) <- regs.(argr.(i))
  done;
  a

let gather_f (fregs : float array) (fargr : int array) : float array =
  let a = Array.make (Array.length fargr) 0.0 in
  for i = 0 to Array.length fargr - 1 do
    a.(i) <- fregs.(fargr.(i))
  done;
  a

let branch_resolve t ~opt_id ~pc ~start ~taken =
  let completion = start + 1 in
  complete t completion;
  let correct = Branch.record t.bp ~fn:opt_id ~pc ~taken in
  if not correct then begin
    let restart = completion + t.cfg.branch_mispredict_penalty in
    if restart > t.cycle then begin
      t.cycle <- restart;
      t.slots <- 0
    end
  end;
  if Profile.on t.prof then Profile.take t.prof Profile.cost_branch t.cycle

let cc_request_tagged t ~classid ~line ~pos ~stored =
  (* With the mechanism on, regObjectClassId was set by the preceding
     movClassID. With it off, these opcodes are plain stores and only feed
     the measurement oracle — the ClassID is then computed functionally. *)
  let value_classid =
    if t.mechanism then t.reg_classid else Heap.classid_of t.heap stored
  in
  Tce_core.Oracle.record t.oracle ~classid ~line ~pos ~value_classid;
  (* Untracked positions never reach the Class Cache: with a reduced Class
     List geometry the compiler never emits ProfileStore for them, but a
     stale optimized body may still execute one after a geometry change in
     tests — treat it as a plain store. *)
  if t.mechanism && Tce_core.Class_list.is_tracked t.cl ~pos then begin
    let r =
      Tce_core.Class_cache.access t.cc t.cl ~classid ~line ~pos ~value_classid
    in
    if not r.hit then begin
      let addr = Tce_core.Class_list.entry_addr t.cl ~classid ~line in
      let fin = daccess t ~start:t.cycle addr in
      t.cycle <- fin + t.cfg.class_cache_miss_penalty - t.cfg.l1_load_latency;
      t.slots <- 0;
      if Profile.on t.prof then
        Profile.take t.prof Profile.cost_ccmiss t.cycle
    end;
    if r.exn_raised then
      raise
        (Cc_exception
           {
             cc_classid = classid;
             cc_line = line;
             cc_pos = pos;
             cc_value_classid = value_classid;
             cc_victims = r.functions_to_deopt;
           })
  end

(* --- profiler labels --- *)

(* index 0 = a C_check whose kind slot is unattributed *)
let check_labels =
  Array.append [| "check" |]
    (Array.of_list (List.map Categories.check_kind_name Categories.all_check_kinds))

(** Profile label for one pre-decoded instruction: check kinds get their
    paper-figure name, everything else its {!Categories} bucket. *)
let label_of_meta m =
  if m land Predecode.meta_pseudo_bit <> 0 then "profile-op"
  else begin
    let ci = m land Predecode.meta_cat_mask in
    if ci = cat_check_idx then begin
      let slot = (m lsr Predecode.meta_check_shift) land 7 in
      if slot < Array.length check_labels then check_labels.(slot) else "check"
    end
    else
      match Categories.of_index ci with
      | Categories.C_taguntag -> "tags-untags"
      | C_math -> "math"
      | C_ccop -> "cc-op"
      | C_check | C_other -> "other"
  end

(** The profile accumulator for [pf]: find-or-register keyed by
    (opt_id, stream length) — see {!Tce_prof.Profile.register_opt} for why
    the length is part of the key. *)
let prof_acc prof (pf : Predecode.func) =
  let f = pf.Predecode.lf in
  let pcs = Array.length pf.Predecode.meta in
  match Profile.find_opt_acc prof ~id:f.Lir.opt_id ~pcs with
  | Some a -> a
  | None ->
    Profile.register_opt prof ~id:f.Lir.opt_id ~name:f.Lir.name
      ~labels:(Array.map label_of_meta pf.Predecode.meta)

(** Per-instruction executor (the pre-decoded interpreter loop): the
    reference semantics. Used directly when profiling is enabled (per-pc
    attribution sites need a site change on every instruction), when a
    fault injector is armed, or when a stream cannot be fused; the
    templated executor below is bit-identical to this loop by
    construction (lib/machine/README.md, "Template fusion invariants"). *)
let run_slow t (host : host) (f : Lir.func) (pf : Predecode.func)
    (args : Value.t array) : Value.t =
  let prof = t.prof in
  let pon = Profile.on prof in
  let pacc = if pon then prof_acc prof pf else Profile.dummy_acc in
  let ops = pf.Predecode.ops and meta = pf.Predecode.meta in
  let regs = Array.make (imax f.Lir.n_regs 1) 0 in
  let fregs = Array.make (imax f.Lir.n_fregs 1) 0.0 in
  let ready = Array.make (imax f.Lir.n_regs 1) t.cycle in
  let fready = Array.make (imax f.Lir.n_fregs 1) t.cycle in
  let nargs = min (Array.length args) f.Lir.n_regs in
  Array.blit args 0 regs 0 nargs;
  (* absent parameters read as null *)
  for i = nargs to min (Array.length f.Lir.reprs) f.Lir.n_regs - 1 do
    regs.(i) <- t.heap.Heap.null_v
  done;
  let mem = t.heap.Heap.mem in
  let code_addr = f.Lir.code_addr in
  let opt_id = f.Lir.opt_id in
  let pc = ref 0 in
  let running = ref true in
  let resv = ref 0 in
  let finish v =
    resv := v;
    running := false
  in
  (* Retire-path invariant check (fault campaigns only): a special store
     that retires without raising re-validates this code's own speculation —
     the host's [is_invalidated] runs the engine's staleness check when an
     injector is armed, catching a dropped update or lost notification at
     the very store that broke the profile. Unfaulted, optimized code can
     never be invalidated on this path (exception delivery is synchronous),
     so the check is skipped and timing is untouched. *)
  let post_store_check deopt_id next =
    if Tce_fault.Injector.armed t.fault && host.is_invalidated opt_id
    then begin
      if Tce_obs.Trace.on t.trace then
        Tce_obs.Trace.emit t.trace
          (Tce_obs.Trace.Osr
             { func = f.Lir.name; pc = f.Lir.deopts.(deopt_id).Lir.bc_pc });
      finish (do_deopt t host f regs fregs deopt_id ~result:None)
    end
    else pc := next
  in
  let handle_cc_exception deopt_id info next =
    if t.measuring then
      t.counters.cc_exception_deopts <- t.counters.cc_exception_deopts + 1;
    host.on_cc_exception info;
    if host.is_invalidated opt_id then begin
      (* the running function speculated on the broken slot: OSR out now
         (the store has completed; state is consistent, paper §4.2.2) *)
      if Tce_obs.Trace.on t.trace then
        Tce_obs.Trace.emit t.trace
          (Tce_obs.Trace.Osr
             { func = f.Lir.name; pc = f.Lir.deopts.(deopt_id).Lir.bc_pc });
      finish (do_deopt t host f regs fregs deopt_id ~result:None)
    end
    else pc := next
  in
  (try
     while !running do
       let pc0 = !pc in
       let m = Array.unsafe_get meta pc0 in
       let op = Array.unsafe_get ops pc0 in
       let next = pc0 + 1 in
       if m land Predecode.meta_pseudo_bit <> 0 then begin
         (* measurement pseudo-ops: zero cost *)
         (match op with
         | Predecode.Pprofile (r, line, pos) ->
           if t.measuring then begin
             let classid = Heap.classid_of t.heap regs.(r) in
             Counters.record_obj_load t.counters ~classid ~line ~pos
           end
         | Pprofile_store_r (r, line, pos, vr) ->
           (* records the store in the monomorphism oracle (mechanism-off
              code has no CC request) *)
           let classid = Heap.classid_of t.heap regs.(r) in
           let value_classid = Heap.classid_of t.heap regs.(vr) in
           Tce_core.Oracle.record t.oracle ~classid ~line ~pos ~value_classid
         | Pprofile_store_c (r, line, pos, c) ->
           let classid = Heap.classid_of t.heap regs.(r) in
           Tce_core.Oracle.record t.oracle ~classid ~line ~pos ~value_classid:c
         | _ -> assert false);
         pc := next
       end
       else begin
         (* current attribution site: everything the clock does until the
            next site change books to (this function, this pc) *)
         if pon then Profile.set_site prof pacc pc0;
         let iline = (code_addr + (4 * pc0)) lsr 6 in
         if iline <> t.last_iline then ifetch_slow t iline;
         let d = dispatch_k t ((m lsr Predecode.meta_kind_shift) land 3) in
         count_meta t m;
         match op with
         | Predecode.Pprofile _ | Pprofile_store_r _ | Pprofile_store_c _ ->
           assert false
         | Pmov_imm (r, i) ->
           regs.(r) <- i;
           ready.(r) <- d + 1;
           complete t (d + 1);
           pc := next
         | Pmov (rd, rs) ->
           regs.(rd) <- regs.(rs);
           ready.(rd) <- imax d ready.(rs) + 1;
           complete t ready.(rd);
           pc := next
         | Palu_r (a, lat, rd, rs, ro) ->
           let start = imax d (imax ready.(rs) ready.(ro)) in
           regs.(rd) <- alu_apply a regs.(rs) regs.(ro);
           ready.(rd) <- start + lat;
           complete t ready.(rd);
           pc := next
         | Palu_i (a, lat, rd, rs, i) ->
           let start = imax d ready.(rs) in
           regs.(rd) <- alu_apply a regs.(rs) i;
           ready.(rd) <- start + lat;
           complete t ready.(rd);
           pc := next
         | Psh64_r (sc, rd, rs, ro) ->
           (* full-width shifts for tag arithmetic *)
           let start = imax d (imax ready.(rs) ready.(ro)) in
           regs.(rd) <- sh64_apply sc regs.(rs) (regs.(ro) land 63);
           ready.(rd) <- start + 1;
           complete t ready.(rd);
           pc := next
         | Psh64_i (sc, rd, rs, i) ->
           let start = imax d ready.(rs) in
           regs.(rd) <- sh64_apply sc regs.(rs) (i land 63);
           ready.(rd) <- start + 1;
           complete t ready.(rd);
           pc := next
         | Palu32_r (a, lat, rd, rs, ro) ->
           let start = imax d (imax ready.(rs) ready.(ro)) in
           regs.(rd) <- Value.to_int32 (alu_apply a regs.(rs) regs.(ro));
           ready.(rd) <- start + lat;
           complete t ready.(rd);
           pc := next
         | Palu32_i (a, lat, rd, rs, i) ->
           let start = imax d ready.(rs) in
           regs.(rd) <- Value.to_int32 (alu_apply a regs.(rs) i);
           ready.(rd) <- start + lat;
           complete t ready.(rd);
           pc := next
         | Paluov_r (a, lat, rd, rs, ro, target) ->
           let start = imax d (imax ready.(rs) ready.(ro)) in
           let v = alu_apply a regs.(rs) regs.(ro) in
           ready.(rd) <- start + lat;
           complete t ready.(rd);
           (* tagged-SMI overflow: payload must fit int32 *)
           if Value.smi_fits (v asr 1) then begin
             regs.(rd) <- v;
             pc := next
           end
           else pc := target
         | Paluov_i (a, lat, rd, rs, i, target) ->
           let start = imax d ready.(rs) in
           let v = alu_apply a regs.(rs) i in
           ready.(rd) <- start + lat;
           complete t ready.(rd);
           if Value.smi_fits (v asr 1) then begin
             regs.(rd) <- v;
             pc := next
           end
           else pc := target
         | Pload (rd, rb, off) ->
           let addr = regs.(rb) + off in
           let start = imax d ready.(rb) in
           regs.(rd) <- Mem.load mem addr;
           ready.(rd) <- daccess t ~start addr;
           complete t ready.(rd);
           pc := next
         | Pchecked_load (rd, rb, off, expected, deopt_id) ->
           (* the class word arrives with the same cache line: the check is
              free in hardware but still *executes* (no removal) *)
           let base = regs.(rb) in
           let addr = base + off in
           let start = imax d ready.(rb) in
           let line_base = Tce_vm.Layout.line_base_of_addr addr in
           let w = Mem.load mem line_base in
           if Value.is_smi base || w <> expected then
             finish (do_deopt t host f regs fregs deopt_id ~result:None)
           else begin
             regs.(rd) <- Mem.load mem addr;
             ready.(rd) <- daccess t ~start addr;
             complete t ready.(rd);
             pc := next
           end
         | Pload_idx (rd, rb, ri, off) ->
           let addr = regs.(rb) + (regs.(ri) * 8) + off in
           let start = imax d (imax ready.(rb) ready.(ri)) in
           regs.(rd) <- Mem.load mem addr;
           ready.(rd) <- daccess t ~start addr;
           complete t ready.(rd);
           pc := next
         | Pfload (fd, rb, off) ->
           let addr = regs.(rb) + off in
           let start = imax d ready.(rb) in
           fregs.(fd) <- Fbits.to_float (Mem.load mem addr);
           fready.(fd) <- daccess t ~start addr;
           complete t fready.(fd);
           pc := next
         | Pfload_idx (fd, rb, ri, off) ->
           let addr = regs.(rb) + (regs.(ri) * 8) + off in
           let start = imax d (imax ready.(rb) ready.(ri)) in
           fregs.(fd) <- Fbits.to_float (Mem.load mem addr);
           fready.(fd) <- daccess t ~start addr;
           complete t fready.(fd);
           pc := next
         | Pstore_r (rb, off, vr) ->
           do_store t d ~addr:(regs.(rb) + off)
             ~start:(imax ready.(vr) ready.(rb))
             ~word:regs.(vr);
           pc := next
         | Pstore_i (rb, off, i) ->
           do_store t d ~addr:(regs.(rb) + off) ~start:ready.(rb) ~word:i;
           pc := next
         | Pstore_idx_r (rb, ri, off, vr) ->
           do_store t d
             ~addr:(regs.(rb) + (regs.(ri) * 8) + off)
             ~start:(imax ready.(vr) (imax ready.(rb) ready.(ri)))
             ~word:regs.(vr);
           pc := next
         | Pstore_idx_i (rb, ri, off, i) ->
           do_store t d
             ~addr:(regs.(rb) + (regs.(ri) * 8) + off)
             ~start:(imax ready.(rb) ready.(ri))
             ~word:i;
           pc := next
         | Pfstore (rb, off, fv) ->
           do_store t d ~addr:(regs.(rb) + off)
             ~start:(imax fready.(fv) ready.(rb))
             ~word:(Fbits.of_float fregs.(fv));
           pc := next
         | Pfstore_idx (rb, ri, off, fv) ->
           do_store t d
             ~addr:(regs.(rb) + (regs.(ri) * 8) + off)
             ~start:(imax fready.(fv) (imax ready.(rb) ready.(ri)))
             ~word:(Fbits.of_float fregs.(fv));
           pc := next
         | Pfmov (fd, fs) ->
           fregs.(fd) <- fregs.(fs);
           fready.(fd) <- imax d fready.(fs) + 1;
           complete t fready.(fd);
           pc := next
         | Pfmov_imm (fd, x) ->
           (* pre-canonicalized at decode time *)
           fregs.(fd) <- x;
           fready.(fd) <- d + 1;
           complete t fready.(fd);
           pc := next
         | Pfadd (fd, fa, fb) ->
           fregs.(fd) <- Fbits.canon (fregs.(fa) +. fregs.(fb));
           falu_time t d fready fd fa fb 3;
           pc := next
         | Pfsub (fd, fa, fb) ->
           fregs.(fd) <- Fbits.canon (fregs.(fa) -. fregs.(fb));
           falu_time t d fready fd fa fb 3;
           pc := next
         | Pfmul (fd, fa, fb) ->
           fregs.(fd) <- Fbits.canon (fregs.(fa) *. fregs.(fb));
           falu_time t d fready fd fa fb 5;
           pc := next
         | Pfdiv (fd, fa, fb) ->
           fregs.(fd) <- Fbits.canon (fregs.(fa) /. fregs.(fb));
           falu_time t d fready fd fa fb 20;
           pc := next
         | Pfsqrt (fd, fs) ->
           fregs.(fd) <- Fbits.canon (sqrt fregs.(fs));
           fready.(fd) <- imax d fready.(fs) + fsqrt_lat;
           complete t fready.(fd);
           pc := next
         | Pfneg (fd, fs) ->
           fregs.(fd) <- -.fregs.(fs);
           fready.(fd) <- imax d fready.(fs) + 1;
           complete t fready.(fd);
           pc := next
         | Pfabs (fd, fs) ->
           fregs.(fd) <- Float.abs fregs.(fs);
           fready.(fd) <- imax d fready.(fs) + 1;
           complete t fready.(fd);
           pc := next
         | Pcvtif (fd, rs) ->
           fregs.(fd) <- float_of_int regs.(rs);
           fready.(fd) <- imax d ready.(rs) + flat_lat;
           complete t fready.(fd);
           pc := next
         | Ptruncfi (rd, fs) ->
           regs.(rd) <- Value.js_to_int32_float fregs.(fs);
           ready.(rd) <- imax d fready.(fs) + flat_lat;
           complete t ready.(rd);
           pc := next
         | Pbranch_r (c, r, ro, target) ->
           let start = imax d (imax ready.(r) ready.(ro)) in
           let taken = cond_apply c regs.(r) regs.(ro) in
           branch_resolve t ~opt_id ~pc:pc0 ~start ~taken;
           pc := (if taken then target else next)
         | Pbranch_i (c, r, i, target) ->
           let start = imax d ready.(r) in
           let taken = cond_apply c regs.(r) i in
           branch_resolve t ~opt_id ~pc:pc0 ~start ~taken;
           pc := (if taken then target else next)
         | Pfbranch (c, fa, fb, target) ->
           let start = imax d (imax fready.(fa) fready.(fb)) in
           let taken = fcond_apply c fregs.(fa) fregs.(fb) in
           branch_resolve t ~opt_id ~pc:pc0 ~start ~taken;
           pc := (if taken then target else next)
         | Pjmp target ->
           complete t (d + 1);
           pc := target
         | Pcall_fn (callee, argr, rd, deopt_id, cinstrs) ->
           (* serialize on argument readiness *)
           serialize_on t ready argr 0;
           t.slots <- 0;
           charge_rt_i t ~pcost:Profile.cost_call ~cat_idx:cat_other_idx
             ~instrs:cinstrs ~cycles:8;
           let argv = gather regs argr in
           let v = host.call_fn callee argv in
           (* the callee (a nested run) moved the attribution site; any
              cycles this frame still books (deopt below, next dispatch)
              belong to this call site again *)
           if pon then Profile.set_site prof pacc pc0;
           if host.is_invalidated opt_id then begin
             (* on-stack replacement: this frame's code died during the call *)
             if Tce_obs.Trace.on t.trace then
               Tce_obs.Trace.emit t.trace
                 (Tce_obs.Trace.Osr
                    { func = f.Lir.name; pc = f.Lir.deopts.(deopt_id).Lir.bc_pc });
             finish (do_deopt t host f regs fregs deopt_id ~result:(Some v))
           end
           else begin
             regs.(rd) <- v;
             ready.(rd) <- t.cycle + 1;
             pc := next
           end
         | Pcall_rt_chk (rt, argr, rd, deopt_id, cinstrs, ccycles) ->
           serialize_on t ready argr 0;
           charge_rt_i t ~pcost:Profile.cost_rt
             ~cat_idx:(m land Predecode.meta_cat_mask) ~instrs:cinstrs
             ~cycles:ccycles;
           let v = host.rt_call rt (gather regs argr) [||] in
           if rd >= 0 then begin
             regs.(rd) <- v;
             ready.(rd) <- t.cycle + 1
           end;
           if host.is_invalidated opt_id then begin
             (* the stub's store retired a profile this code speculates on *)
             if Tce_obs.Trace.on t.trace then
               Tce_obs.Trace.emit t.trace
                 (Tce_obs.Trace.Osr
                    { func = f.Lir.name; pc = f.Lir.deopts.(deopt_id).Lir.bc_pc });
             finish
               (do_deopt t host f regs fregs deopt_id
                  ~result:(if rd >= 0 then Some v else None))
           end
           else pc := next
         | Pcall_rt (rt, argr, fargr, rd, fd, cinstrs, ccycles) ->
           serialize_on t ready argr 0;
           serialize_on t fready fargr 0;
           charge_rt_i t ~pcost:Profile.cost_rt
             ~cat_idx:(m land Predecode.meta_cat_mask) ~instrs:cinstrs
             ~cycles:ccycles;
           let v = host.rt_call rt (gather regs argr) (gather_f fregs fargr) in
           if rd >= 0 then begin
             regs.(rd) <- v;
             ready.(rd) <- t.cycle + 1
           end;
           if fd >= 0 then begin
             fregs.(fd) <- t.rt_fres.(0);
             fready.(fd) <- t.cycle + 1
           end;
           pc := next
         | Pret r ->
           complete t (d + 1);
           finish regs.(r)
         | Pdeopt deopt_id ->
           finish (do_deopt t host f regs fregs deopt_id ~result:None)
         | Pmov_classid r ->
           let v = regs.(r) in
           if Value.is_smi v then begin
             t.reg_classid <- Tce_vm.Layout.smi_classid;
             complete t (d + 1)
           end
           else begin
             let addr = Value.ptr_addr v in
             t.reg_classid <- Heap.classid_of t.heap v;
             complete t (daccess t ~start:(imax d ready.(r)) addr)
           end;
           pc := next
         | Pmov_classid_arr (k, r) ->
           let v = regs.(r) in
           if Value.is_smi v then begin
             (* hoisted loads may execute speculatively with a non-object
                value (loop body never entered); behave like movClassID *)
             t.reg_classid_arr.(k) <- Tce_vm.Layout.smi_classid;
             complete t (d + 1)
           end
           else begin
             let addr = Value.ptr_addr v in
             t.reg_classid_arr.(k) <- Heap.classid_of t.heap v;
             complete t (daccess t ~start:(imax d ready.(r)) addr)
           end;
           pc := next
         | Pstore_cc_r (rb, off, vr, deopt_id) -> (
           let addr = regs.(rb) + off in
           do_store t d ~addr ~start:(imax ready.(vr) ready.(rb))
             ~word:regs.(vr);
           (* the memory unit recovers (ClassID, Line, slot) from the line *)
           let line_base = Tce_vm.Layout.line_base_of_addr addr in
           let w = Mem.load mem line_base in
           let classid = Tce_vm.Layout.classid_of_class_word w in
           let line = Tce_vm.Layout.line_of_class_word w in
           let pos = Tce_vm.Layout.slot_pos_of_addr addr in
           try
             cc_request_tagged t ~classid ~line ~pos ~stored:regs.(vr);
             post_store_check deopt_id next
           with Cc_exception fns -> handle_cc_exception deopt_id fns next)
         | Pstore_cc_i (rb, off, i, deopt_id) -> (
           let addr = regs.(rb) + off in
           do_store t d ~addr ~start:ready.(rb) ~word:i;
           let line_base = Tce_vm.Layout.line_base_of_addr addr in
           let w = Mem.load mem line_base in
           let classid = Tce_vm.Layout.classid_of_class_word w in
           let line = Tce_vm.Layout.line_of_class_word w in
           let pos = Tce_vm.Layout.slot_pos_of_addr addr in
           try
             cc_request_tagged t ~classid ~line ~pos ~stored:i;
             post_store_check deopt_id next
           with Cc_exception fns -> handle_cc_exception deopt_id fns next)
         | Pstore_cca_r (k, rb, ri, off, vr, deopt_id) -> (
           let addr = regs.(rb) + (regs.(ri) * 8) + off in
           do_store t d ~addr
             ~start:(imax ready.(vr) (imax ready.(rb) ready.(ri)))
             ~word:regs.(vr);
           let classid = t.reg_classid_arr.(k) in
           try
             cc_request_tagged t ~classid ~line:0
               ~pos:Tce_vm.Layout.elements_ptr_slot ~stored:regs.(vr);
             post_store_check deopt_id next
           with Cc_exception fns -> handle_cc_exception deopt_id fns next)
         | Pstore_cca_i (k, rb, ri, off, i, deopt_id) -> (
           let addr = regs.(rb) + (regs.(ri) * 8) + off in
           do_store t d ~addr ~start:(imax ready.(rb) ready.(ri)) ~word:i;
           let classid = t.reg_classid_arr.(k) in
           try
             cc_request_tagged t ~classid ~line:0
               ~pos:Tce_vm.Layout.elements_ptr_slot ~stored:i;
             post_store_check deopt_id next
           with Cc_exception fns -> handle_cc_exception deopt_id fns next)
       end
     done
   with Cc_exception _ -> assert false);
  !resv

(* --- superinstruction templates: direct-threaded closure compilation --- *)

(* Unprofiled dispatch variants: templates only run with the profiler off,
   so [Profile.take] in [dispatch_k] is statically known to be a no-op —
   each variant is [dispatch_k] specialized to one port kind with the dead
   profiler tests removed (same state transitions in the same order). *)

(* From here down — the templated executor only — array indexing compiles
   to unchecked accesses: every register operand was validated against its
   register file at layout time ({!Template.regs_in_range}), every control
   target at layout time too, so the [a.(i)] bounds checks can never fire.
   The per-instruction loop above keeps the checked accesses (it is the
   fallback for streams that fail validation). *)
module Array = struct
  include Stdlib.Array

  (* re-declared as externals (not [let get = unsafe_get]) so the accesses
     stay compiler intrinsics instead of becoming out-of-line calls *)
  external get : 'a array -> int -> 'a = "%array_unsafe_get"
  external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
end

let tpl_win_retire t =
  if t.win_len >= t.cfg.window_size then begin
    let c = Array.unsafe_get t.win_buf t.win_head in
    t.win_head <- (t.win_head + 1) land t.win_mask;
    t.win_len <- t.win_len - 1;
    if c > t.cycle then begin
      t.cycle <- c;
      t.slots <- 0;
      t.load_slots <- 0;
      t.store_slots <- 0
    end
  end

let tpl_dispatch_k t kind =
  if t.slots >= t.cfg.issue_width then advance t;
  if kind = kind_load then while t.load_slots >= 1 do advance t done
  else if kind = kind_store then while t.store_slots >= 1 do advance t done;
  tpl_win_retire t;
  t.slots <- t.slots + 1;
  if kind = kind_load then t.load_slots <- t.load_slots + 1
  else if kind = kind_store then t.store_slots <- t.store_slots + 1;
  t.cycle

(* Exits shared by the deopt-capable step closures, mirroring the OSR arms,
   [post_store_check] and [handle_cc_exception] of the slow loop. *)

let t_osr_trace t (f : Lir.func) deopt_id =
  if Tce_obs.Trace.on t.trace then
    Tce_obs.Trace.emit t.trace
      (Tce_obs.Trace.Osr
         { func = f.Lir.name; pc = f.Lir.deopts.(deopt_id).Lir.bc_pc })

let t_deopt t env (f : Lir.func) deopt_id ~result =
  do_deopt t env.te_host f env.te_regs env.te_fregs deopt_id ~result

(* After a special store retired without raising: stay in this code unless
   an armed fault injector invalidated it ([post_store_check]). *)
let t_store_stays t env (f : Lir.func) =
  not
    (Tce_fault.Injector.armed t.fault
    && env.te_host.is_invalidated f.Lir.opt_id)

(* After a special store raised a Class Cache exception: deliver it, and
   stay in this code unless it was one of the victims
   ([handle_cc_exception]). *)
let t_cc_stays t env (f : Lir.func) info =
  if t.measuring then
    t.counters.cc_exception_deopts <- t.counters.cc_exception_deopts + 1;
  env.te_host.on_cc_exception info;
  not (env.te_host.is_invalidated f.Lir.opt_id)

(* OSR out of a special store's code: the store has completed, state is
   consistent (paper §4.2.2). *)
let t_store_exit t env (f : Lir.func) deopt_id =
  t_osr_trace t f deopt_id;
  t_deopt t env f deopt_id ~result:None

(** The continuation of the stream's final block, and the placeholder in
    the entry table before its block is compiled: the layout guarantees
    control never reaches either. *)
let unreachable : tstep = fun _ -> assert false

(** Measurement pseudo-ops: zero timing cost, no dispatch, no fetch. *)
let compile_pseudo t (op : Predecode.pre) ~(knext : tstep) : tstep =
  match op with
  | Predecode.Pprofile (r, line, pos) ->
    fun env ->
      if t.measuring then begin
        let classid = Heap.classid_of t.heap env.te_regs.(r) in
        Counters.record_obj_load t.counters ~classid ~line ~pos
      end;
      knext env
  | Pprofile_store_r (r, line, pos, vr) ->
    fun env ->
      let regs = env.te_regs in
      let classid = Heap.classid_of t.heap regs.(r) in
      let value_classid = Heap.classid_of t.heap regs.(vr) in
      Tce_core.Oracle.record t.oracle ~classid ~line ~pos ~value_classid;
      knext env
  | Pprofile_store_c (r, line, pos, c) ->
    fun env ->
      let classid = Heap.classid_of t.heap env.te_regs.(r) in
      Tce_core.Oracle.record t.oracle ~classid ~line ~pos ~value_classid:c;
      knext env
  | _ -> assert false

(** Compile one non-pseudo instruction into a threaded step closure. All
    operands, latencies, ALU/condition operators, the dispatch-port variant
    and the continuations are bound at compile time; each closure body is
    the matching arm of {!run_slow} minus the per-instruction counting
    (block entries are counted instead) and the profiler tests (templates
    only run with profiling off). Control transfers are tail calls: [knext]
    is the code at [pc + 1] (the next step, or the next block's entry after
    a terminator), and a branch to [target] enters
    [entries.(block_of_pc.(target))], the target block's entry closure. *)
let compile_body t (f : Lir.func) ~pc ~m (op : Predecode.pre) ~(knext : tstep)
    ~(entries : tstep array) ~(block_of_pc : int array) : tstep =
  let mem = t.heap.Heap.mem in
  let opt_id = f.Lir.opt_id in
  let kind = (m lsr Predecode.meta_kind_shift) land 3 in
  match op with
  | Predecode.Pprofile _ | Pprofile_store_r _ | Pprofile_store_c _ ->
    assert false
  | Pmov_imm (r, i) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      env.te_regs.(r) <- i;
      env.te_ready.(r) <- d + 1;
      complete t (d + 1);
      knext env
  | Pmov (rd, rs) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      regs.(rd) <- regs.(rs);
      ready.(rd) <- imax d ready.(rs) + 1;
      complete t ready.(rd);
      knext env
  | Palu_r (a, lat, rd, rs, ro) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d (imax ready.(rs) ready.(ro)) in
      regs.(rd) <- alu_apply a regs.(rs) regs.(ro);
      ready.(rd) <- start + lat;
      complete t ready.(rd);
      knext env
  | Palu_i (a, lat, rd, rs, i) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d ready.(rs) in
      regs.(rd) <- alu_apply a regs.(rs) i;
      ready.(rd) <- start + lat;
      complete t ready.(rd);
      knext env
  | Psh64_r (sc, rd, rs, ro) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d (imax ready.(rs) ready.(ro)) in
      regs.(rd) <- sh64_apply sc regs.(rs) (regs.(ro) land 63);
      ready.(rd) <- start + 1;
      complete t ready.(rd);
      knext env
  | Psh64_i (sc, rd, rs, i) ->
    let y = i land 63 in
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d ready.(rs) in
      regs.(rd) <- sh64_apply sc regs.(rs) y;
      ready.(rd) <- start + 1;
      complete t ready.(rd);
      knext env
  | Palu32_r (a, lat, rd, rs, ro) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d (imax ready.(rs) ready.(ro)) in
      regs.(rd) <- Value.to_int32 (alu_apply a regs.(rs) regs.(ro));
      ready.(rd) <- start + lat;
      complete t ready.(rd);
      knext env
  | Palu32_i (a, lat, rd, rs, i) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d ready.(rs) in
      regs.(rd) <- Value.to_int32 (alu_apply a regs.(rs) i);
      ready.(rd) <- start + lat;
      complete t ready.(rd);
      knext env
  | Paluov_r (a, lat, rd, rs, ro, target) ->
    let bt = block_of_pc.(target) in
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d (imax ready.(rs) ready.(ro)) in
      let v = alu_apply a regs.(rs) regs.(ro) in
      ready.(rd) <- start + lat;
      complete t ready.(rd);
      if Value.smi_fits (v asr 1) then begin
        regs.(rd) <- v;
        knext env
      end
      else entries.(bt) env
  | Paluov_i (a, lat, rd, rs, i, target) ->
    let bt = block_of_pc.(target) in
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d ready.(rs) in
      let v = alu_apply a regs.(rs) i in
      ready.(rd) <- start + lat;
      complete t ready.(rd);
      if Value.smi_fits (v asr 1) then begin
        regs.(rd) <- v;
        knext env
      end
      else entries.(bt) env
  | Pload (rd, rb, off) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + off in
      let start = imax d ready.(rb) in
      regs.(rd) <- Mem.load mem addr;
      ready.(rd) <- daccess t ~start addr;
      complete t ready.(rd);
      knext env
  | Pchecked_load (rd, rb, off, expected, deopt_id) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let base = regs.(rb) in
      let addr = base + off in
      let start = imax d ready.(rb) in
      let line_base = Tce_vm.Layout.line_base_of_addr addr in
      let w = Mem.load mem line_base in
      if Value.is_smi base || w <> expected then
        t_deopt t env f deopt_id ~result:None
      else begin
        regs.(rd) <- Mem.load mem addr;
        ready.(rd) <- daccess t ~start addr;
        complete t ready.(rd);
        knext env
      end
  | Pload_idx (rd, rb, ri, off) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + (regs.(ri) * 8) + off in
      let start = imax d (imax ready.(rb) ready.(ri)) in
      regs.(rd) <- Mem.load mem addr;
      ready.(rd) <- daccess t ~start addr;
      complete t ready.(rd);
      knext env
  | Pfload (fd, rb, off) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let fregs = env.te_fregs and fready = env.te_fready in
      let addr = regs.(rb) + off in
      let start = imax d ready.(rb) in
      fregs.(fd) <- Fbits.to_float (Mem.load mem addr);
      fready.(fd) <- daccess t ~start addr;
      complete t fready.(fd);
      knext env
  | Pfload_idx (fd, rb, ri, off) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let fregs = env.te_fregs and fready = env.te_fready in
      let addr = regs.(rb) + (regs.(ri) * 8) + off in
      let start = imax d (imax ready.(rb) ready.(ri)) in
      fregs.(fd) <- Fbits.to_float (Mem.load mem addr);
      fready.(fd) <- daccess t ~start addr;
      complete t fready.(fd);
      knext env
  | Pstore_r (rb, off, vr) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d ~addr:(regs.(rb) + off)
        ~start:(imax ready.(vr) ready.(rb))
        ~word:regs.(vr);
      knext env
  | Pstore_i (rb, off, i) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d ~addr:(regs.(rb) + off) ~start:ready.(rb) ~word:i;
      knext env
  | Pstore_idx_r (rb, ri, off, vr) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d
        ~addr:(regs.(rb) + (regs.(ri) * 8) + off)
        ~start:(imax ready.(vr) (imax ready.(rb) ready.(ri)))
        ~word:regs.(vr);
      knext env
  | Pstore_idx_i (rb, ri, off, i) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d
        ~addr:(regs.(rb) + (regs.(ri) * 8) + off)
        ~start:(imax ready.(rb) ready.(ri))
        ~word:i;
      knext env
  | Pfstore (rb, off, fv) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d ~addr:(regs.(rb) + off)
        ~start:(imax env.te_fready.(fv) ready.(rb))
        ~word:(Fbits.of_float env.te_fregs.(fv));
      knext env
  | Pfstore_idx (rb, ri, off, fv) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      do_store t d
        ~addr:(regs.(rb) + (regs.(ri) * 8) + off)
        ~start:(imax env.te_fready.(fv) (imax ready.(rb) ready.(ri)))
        ~word:(Fbits.of_float env.te_fregs.(fv));
      knext env
  | Pfmov (fd, fs) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let fregs = env.te_fregs and fready = env.te_fready in
      fregs.(fd) <- fregs.(fs);
      fready.(fd) <- imax d fready.(fs) + 1;
      complete t fready.(fd);
      knext env
  | Pfmov_imm (fd, x) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      env.te_fregs.(fd) <- x;
      env.te_fready.(fd) <- d + 1;
      complete t (d + 1);
      knext env
  | Pfadd (fd, fa, fb) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let fregs = env.te_fregs in
      fregs.(fd) <- Fbits.canon (fregs.(fa) +. fregs.(fb));
      falu_time t d env.te_fready fd fa fb 3;
      knext env
  | Pfsub (fd, fa, fb) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let fregs = env.te_fregs in
      fregs.(fd) <- Fbits.canon (fregs.(fa) -. fregs.(fb));
      falu_time t d env.te_fready fd fa fb 3;
      knext env
  | Pfmul (fd, fa, fb) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let fregs = env.te_fregs in
      fregs.(fd) <- Fbits.canon (fregs.(fa) *. fregs.(fb));
      falu_time t d env.te_fready fd fa fb 5;
      knext env
  | Pfdiv (fd, fa, fb) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let fregs = env.te_fregs in
      fregs.(fd) <- Fbits.canon (fregs.(fa) /. fregs.(fb));
      falu_time t d env.te_fready fd fa fb 20;
      knext env
  | Pfsqrt (fd, fs) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let fregs = env.te_fregs and fready = env.te_fready in
      fregs.(fd) <- Fbits.canon (sqrt fregs.(fs));
      fready.(fd) <- imax d fready.(fs) + fsqrt_lat;
      complete t fready.(fd);
      knext env
  | Pfneg (fd, fs) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let fregs = env.te_fregs and fready = env.te_fready in
      fregs.(fd) <- -.fregs.(fs);
      fready.(fd) <- imax d fready.(fs) + 1;
      complete t fready.(fd);
      knext env
  | Pfabs (fd, fs) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let fregs = env.te_fregs and fready = env.te_fready in
      fregs.(fd) <- Float.abs fregs.(fs);
      fready.(fd) <- imax d fready.(fs) + 1;
      complete t fready.(fd);
      knext env
  | Pcvtif (fd, rs) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      env.te_fregs.(fd) <- float_of_int env.te_regs.(rs);
      env.te_fready.(fd) <- imax d env.te_ready.(rs) + flat_lat;
      complete t env.te_fready.(fd);
      knext env
  | Ptruncfi (rd, fs) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      env.te_regs.(rd) <- Value.js_to_int32_float env.te_fregs.(fs);
      env.te_ready.(rd) <- imax d env.te_fready.(fs) + flat_lat;
      complete t env.te_ready.(rd);
      knext env
  | Pbranch_r (c, r, ro, target) ->
    let bt = block_of_pc.(target) in
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let start = imax d (imax ready.(r) ready.(ro)) in
      let taken = cond_apply c regs.(r) regs.(ro) in
      branch_resolve t ~opt_id ~pc ~start ~taken;
      if taken then entries.(bt) env else knext env
  | Pbranch_i (c, r, i, target) ->
    let bt = block_of_pc.(target) in
    fun env ->
      let d = tpl_dispatch_k t kind in
      let start = imax d env.te_ready.(r) in
      let taken = cond_apply c env.te_regs.(r) i in
      branch_resolve t ~opt_id ~pc ~start ~taken;
      if taken then entries.(bt) env else knext env
  | Pfbranch (c, fa, fb, target) ->
    let bt = block_of_pc.(target) in
    fun env ->
      let d = tpl_dispatch_k t kind in
      let fready = env.te_fready in
      let start = imax d (imax fready.(fa) fready.(fb)) in
      let taken = fcond_apply c env.te_fregs.(fa) env.te_fregs.(fb) in
      branch_resolve t ~opt_id ~pc ~start ~taken;
      if taken then entries.(bt) env else knext env
  | Pjmp target ->
    let bt = block_of_pc.(target) in
    fun env ->
      let d = tpl_dispatch_k t kind in
      complete t (d + 1);
      entries.(bt) env
  | Pcall_fn (callee, argr, rd, deopt_id, cinstrs) ->
    fun env ->
      ignore (tpl_dispatch_k t kind);
      let regs = env.te_regs and ready = env.te_ready in
      serialize_on t ready argr 0;
      t.slots <- 0;
      charge_rt_i t ~pcost:Profile.cost_call ~cat_idx:cat_other_idx
        ~instrs:cinstrs ~cycles:8;
      let v = env.te_host.call_fn callee (gather regs argr) in
      if env.te_host.is_invalidated opt_id then begin
        t_osr_trace t f deopt_id;
        t_deopt t env f deopt_id ~result:(Some v)
      end
      else begin
        regs.(rd) <- v;
        ready.(rd) <- t.cycle + 1;
        knext env
      end
  | Pcall_rt_chk (rt, argr, rd, deopt_id, cinstrs, ccycles) ->
    let cat_idx = m land Predecode.meta_cat_mask in
    fun env ->
      ignore (tpl_dispatch_k t kind);
      let regs = env.te_regs and ready = env.te_ready in
      serialize_on t ready argr 0;
      charge_rt_i t ~pcost:Profile.cost_rt ~cat_idx ~instrs:cinstrs
        ~cycles:ccycles;
      let v = env.te_host.rt_call rt (gather regs argr) [||] in
      if rd >= 0 then begin
        regs.(rd) <- v;
        ready.(rd) <- t.cycle + 1
      end;
      if env.te_host.is_invalidated opt_id then begin
        t_osr_trace t f deopt_id;
        t_deopt t env f deopt_id ~result:(if rd >= 0 then Some v else None)
      end
      else knext env
  | Pcall_rt (rt, argr, fargr, rd, fd, cinstrs, ccycles) ->
    let cat_idx = m land Predecode.meta_cat_mask in
    fun env ->
      ignore (tpl_dispatch_k t kind);
      let regs = env.te_regs and ready = env.te_ready in
      let fregs = env.te_fregs and fready = env.te_fready in
      serialize_on t ready argr 0;
      serialize_on t fready fargr 0;
      charge_rt_i t ~pcost:Profile.cost_rt ~cat_idx ~instrs:cinstrs
        ~cycles:ccycles;
      let v =
        env.te_host.rt_call rt (gather regs argr) (gather_f fregs fargr)
      in
      if rd >= 0 then begin
        regs.(rd) <- v;
        ready.(rd) <- t.cycle + 1
      end;
      if fd >= 0 then begin
        fregs.(fd) <- t.rt_fres.(0);
        fready.(fd) <- t.cycle + 1
      end;
      knext env
  | Pret r ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      complete t (d + 1);
      env.te_regs.(r)
  | Pdeopt deopt_id ->
    fun env ->
      ignore (tpl_dispatch_k t kind);
      t_deopt t env f deopt_id ~result:None
  | Pmov_classid r ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let v = env.te_regs.(r) in
      if Value.is_smi v then begin
        t.reg_classid <- Tce_vm.Layout.smi_classid;
        complete t (d + 1)
      end
      else begin
        let addr = Value.ptr_addr v in
        t.reg_classid <- Heap.classid_of t.heap v;
        complete t (daccess t ~start:(imax d env.te_ready.(r)) addr)
      end;
      knext env
  | Pmov_classid_arr (k, r) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let v = env.te_regs.(r) in
      if Value.is_smi v then begin
        t.reg_classid_arr.(k) <- Tce_vm.Layout.smi_classid;
        complete t (d + 1)
      end
      else begin
        let addr = Value.ptr_addr v in
        t.reg_classid_arr.(k) <- Heap.classid_of t.heap v;
        complete t (daccess t ~start:(imax d env.te_ready.(r)) addr)
      end;
      knext env
  (* The special stores keep the handler around the Class Cache request and
     the staying test only; the continuation (or the OSR exit) runs after
     the handler is popped, so it stays a tail call. *)
  | Pstore_cc_r (rb, off, vr, deopt_id) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + off in
      do_store t d ~addr ~start:(imax ready.(vr) ready.(rb)) ~word:regs.(vr);
      let line_base = Tce_vm.Layout.line_base_of_addr addr in
      let w = Mem.load mem line_base in
      let classid = Tce_vm.Layout.classid_of_class_word w in
      let line = Tce_vm.Layout.line_of_class_word w in
      let pos = Tce_vm.Layout.slot_pos_of_addr addr in
      let stays =
        try
          cc_request_tagged t ~classid ~line ~pos ~stored:regs.(vr);
          t_store_stays t env f
        with Cc_exception info -> t_cc_stays t env f info
      in
      if stays then knext env else t_store_exit t env f deopt_id
  | Pstore_cc_i (rb, off, i, deopt_id) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + off in
      do_store t d ~addr ~start:ready.(rb) ~word:i;
      let line_base = Tce_vm.Layout.line_base_of_addr addr in
      let w = Mem.load mem line_base in
      let classid = Tce_vm.Layout.classid_of_class_word w in
      let line = Tce_vm.Layout.line_of_class_word w in
      let pos = Tce_vm.Layout.slot_pos_of_addr addr in
      let stays =
        try
          cc_request_tagged t ~classid ~line ~pos ~stored:i;
          t_store_stays t env f
        with Cc_exception info -> t_cc_stays t env f info
      in
      if stays then knext env else t_store_exit t env f deopt_id
  | Pstore_cca_r (k, rb, ri, off, vr, deopt_id) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + (regs.(ri) * 8) + off in
      do_store t d ~addr
        ~start:(imax ready.(vr) (imax ready.(rb) ready.(ri)))
        ~word:regs.(vr);
      let classid = t.reg_classid_arr.(k) in
      let stays =
        try
          cc_request_tagged t ~classid ~line:0
            ~pos:Tce_vm.Layout.elements_ptr_slot ~stored:regs.(vr);
          t_store_stays t env f
        with Cc_exception info -> t_cc_stays t env f info
      in
      if stays then knext env else t_store_exit t env f deopt_id
  | Pstore_cca_i (k, rb, ri, off, i, deopt_id) ->
    fun env ->
      let d = tpl_dispatch_k t kind in
      let regs = env.te_regs and ready = env.te_ready in
      let addr = regs.(rb) + (regs.(ri) * 8) + off in
      do_store t d ~addr ~start:(imax ready.(rb) ready.(ri)) ~word:i;
      let classid = t.reg_classid_arr.(k) in
      let stays =
        try
          cc_request_tagged t ~classid ~line:0
            ~pos:Tce_vm.Layout.elements_ptr_slot ~stored:i;
          t_store_stays t env f
        with Cc_exception info -> t_cc_stays t env f info
      in
      if stays then knext env else t_store_exit t env f deopt_id

(** {3 Deferred block counters}

    A templated block does not add its counter summary on entry: its entry
    closure only bumps [tb_count] (pushing the block on the machine's dirty
    stack on the 0 → 1 transition), and {!fold_block_counts} adds
    [tb_count × summary] when the outermost {!run} returns or raises.

    This is exact. Counting is additive, so neither the fold order nor
    multiplying instead of repeating changes a total, and a block is
    counted only when entered while measuring, as before. The contract:
    nothing reads [by_cat], [by_check_kind], [guards_obj_load] or
    [opt_loads/stores/branches/fp] while a {!run} is live. The engine's
    observability tick reads deopts, tier-ups, Class Cache and baseline
    counts only; the harness reads after [bench()] returns; and the
    cycle-attribution profiler, which needs per-instruction counts, forces
    {!run_slow}. *)

let push_dirty t b =
  let n = t.dirty_len in
  if n = Array.length t.dirty then begin
    let a = Array.make (imax 16 (2 * n)) b in
    Array.blit t.dirty 0 a 0 n;
    t.dirty <- a
  end;
  t.dirty.(n) <- b;
  t.dirty_len <- n + 1

(* [count] entries' worth of [s]. The unsafe accesses pair same-length
   arrays ([Categories.count] and [check_kind_count + 1] on both sides). *)
let add_summary (c : Counters.t) (s : Template.summary) count =
  let bc = c.Counters.by_cat and sc = s.Template.s_by_cat in
  for i = 0 to Array.length sc - 1 do
    bc.(i) <- bc.(i) + (count * sc.(i))
  done;
  let bk = c.Counters.by_check_kind and sk = s.Template.s_by_check in
  for i = 0 to Array.length sk - 1 do
    bk.(i) <- bk.(i) + (count * sk.(i))
  done;
  c.guards_obj_load <- c.guards_obj_load + (count * s.Template.s_guards);
  c.opt_loads <- c.opt_loads + (count * s.Template.s_loads);
  c.opt_stores <- c.opt_stores + (count * s.Template.s_stores);
  c.opt_branches <- c.opt_branches + (count * s.Template.s_branches);
  c.opt_fp <- c.opt_fp + (count * s.Template.s_fp)

let fold_block_counts t =
  for i = 0 to t.dirty_len - 1 do
    let b = t.dirty.(i) in
    add_summary t.counters b.tb_sum b.tb_count;
    b.tb_count <- 0
  done;
  t.dirty_len <- 0

(* Count one entry of [b]: the 0 -> 1 transition puts it on the dirty
   stack. *)
let count_entry t b =
  let c = b.tb_count in
  b.tb_count <- c + 1;
  if c = 0 then push_dirty t b

let[@inline] is_pseudo (meta : int array) pc =
  meta.(pc) land Predecode.meta_pseudo_bit <> 0

let[@inline] line_of_pc (f : Lir.func) pc = (f.Lir.code_addr + (4 * pc)) lsr 6

(* I-cache line of the closest non-pseudo pc in [first, pc], or -1. *)
let rec fetched_line (f : Lir.func) (meta : int array) ~first pc =
  if pc < first then -1
  else if is_pseudo meta pc then fetched_line f meta ~first (pc - 1)
  else line_of_pc f pc

(** Compile one basic block into its entry closure. Steps are built back
    to front, from [pc] down to the block's first pc: each captures the
    step after it, and the last one [knext] — the next block's entry,
    which {!compile_template} compiled first (or {!unreachable} after the
    final block).

    I-cache accounting is resolved statically within the block: after any
    executed non-pseudo instruction [last_iline] equals its line, so only
    the block's first non-pseudo step needs the dynamic line compare —
    later steps either provably stay on the same line (no fetch) or
    provably cross into a new one (unconditional fetch). Pseudo-ops never
    fetch. The entry closure counts the entry while measuring; when the
    block starts with a non-pseudo instruction it also performs that
    step's line compare, saving one closure call per block. *)
let rec compile_block t (f : Lir.func) (pf : Predecode.func)
    (b : Template.block) ~entries ~block_of_pc pc (knext : tstep) : tstep =
  let meta = pf.Predecode.meta in
  let first = b.Template.b_start in
  if pc >= first then begin
    let op = pf.Predecode.ops.(pc) in
    let step =
      if is_pseudo meta pc then compile_pseudo t op ~knext
      else begin
        let line = line_of_pc f pc in
        let body =
          compile_body t f ~pc ~m:meta.(pc) op ~knext ~entries ~block_of_pc
        in
        let prev = fetched_line f meta ~first (pc - 1) in
        if pc = first || prev = line then body
        else if prev < 0 then fun env ->
          if line <> t.last_iline then ifetch_slow t line;
          body env
        else fun env ->
          ifetch_slow t line;
          body env
      end
    in
    compile_block t f pf b ~entries ~block_of_pc (pc - 1) step
  end
  else begin
    let blk = { tb_count = 0; tb_sum = b.Template.b_sum } in
    if is_pseudo meta first then fun env ->
      if t.measuring then count_entry t blk;
      knext env
    else begin
      let line = line_of_pc f first in
      fun env ->
        if t.measuring then count_entry t blk;
        if line <> t.last_iline then ifetch_slow t line;
        knext env
    end
  end

(** Compile the full template for a decoded stream, or [None] when
    {!Template.layout} rejects it (fall back to the slow loop forever).
    Blocks compile last to first so that each one's fall-through
    successor already exists; branch targets go through [entries], which
    holds every block's entry closure once the loop is done. *)
let compile_template t (f : Lir.func) (pf : Predecode.func) : template option
    =
  match Template.layout pf with
  | None -> None
  | Some lay ->
    let blocks = lay.Template.blocks in
    let entries = Array.make (Array.length blocks) unreachable in
    let block_of_pc = lay.Template.block_of_pc in
    for i = Array.length blocks - 1 downto 0 do
      let b = blocks.(i) in
      let knext =
        if i + 1 < Array.length blocks then entries.(i + 1) else unreachable
      in
      entries.(i) <-
        compile_block t f pf b ~entries ~block_of_pc
          (b.Template.b_start + b.Template.b_len - 1)
          knext
    done;
    Some { tp_pf = pf; tp_entry = entries.(0) }

let compile_into t (f : Lir.func) (pf : Predecode.func) =
  let tpl = compile_template t f pf in
  Hashtbl.replace t.tpl_cache f.Lir.opt_id (pf, tpl);
  tpl

(** Template for [f], compiling at most once per compilation — same keying
    discipline as {!install}: by [opt_id], with a physical-equality guard
    on the decoded stream covering id reuse. *)
let install_template t (f : Lir.func) (pf : Predecode.func) =
  match Hashtbl.find t.tpl_cache f.Lir.opt_id with
  | pf', tpl when pf' == pf -> tpl
  | _ -> compile_into t f pf
  | exception Not_found -> compile_into t f pf

(* Push [env] back on the free stack, growing it when full (the stack is
   as deep as the deepest guest-call nesting seen so far). *)
let release_env t env =
  let n = Array.length t.env_pool in
  if t.env_free = n then
    t.env_pool <-
      Array.init (imax 8 (2 * n)) (fun i ->
          if i < n then t.env_pool.(i) else env);
  t.env_pool.(t.env_free) <- env;
  t.env_free <- t.env_free + 1

(** Templated executor: set up the register files and call the entry of
    the block at pc 0 once. Control then threads through the step closures
    by tail calls until a [Pret] or a deopt returns the result. Bit-identical
    to {!run_slow} by construction. *)
let run_templated t (host : host) (f : Lir.func) (tpl : template)
    (args : Value.t array) : Value.t =
  let nr = imax f.Lir.n_regs 1 in
  let nf = imax f.Lir.n_fregs 1 in
  (* Acquire a pooled environment (guest calls nest, so this is a stack,
     not a singleton). Pooled register files may be longer than this
     function needs; steps index below [n_regs]/[n_fregs] only, and the
     used prefix is re-initialized to exactly the fresh-allocation state. *)
  let env =
    if t.env_free > 0 then begin
      t.env_free <- t.env_free - 1;
      let e = t.env_pool.(t.env_free) in
      if Array.length e.te_regs < nr then begin
        e.te_regs <- Array.make nr 0;
        e.te_ready <- Array.make nr 0
      end;
      if Array.length e.te_fregs < nf then begin
        e.te_fregs <- Array.make nf 0.0;
        e.te_fready <- Array.make nf 0
      end;
      e.te_host <- host;
      e
    end
    else
      {
        te_host = host;
        te_regs = Array.make nr 0;
        te_fregs = Array.make nf 0.0;
        te_ready = Array.make nr 0;
        te_fready = Array.make nf 0;
      }
  in
  let regs = env.te_regs in
  Array.fill regs 0 nr 0;
  Array.fill env.te_fregs 0 nf 0.0;
  Array.fill env.te_ready 0 nr t.cycle;
  Array.fill env.te_fready 0 nf t.cycle;
  let nargs = min (Array.length args) f.Lir.n_regs in
  Array.blit args 0 regs 0 nargs;
  (* absent parameters read as null *)
  for i = nargs to min (Array.length f.Lir.reprs) f.Lir.n_regs - 1 do
    regs.(i) <- t.heap.Heap.null_v
  done;
  let res = tpl.tp_entry env in
  release_env t env;
  res

let run_any t (host : host) (f : Lir.func) (args : Value.t array) : Value.t =
  let pf = install t f in
  if
    t.templates
    && (not (Profile.on t.prof))
    && not (Tce_fault.Injector.armed t.fault)
  then
    match install_template t f pf with
    | Some tpl -> run_templated t host f tpl args
    | None -> run_slow t host f pf args
  else run_slow t host f pf args

(* Leave one {!run}; the outermost one folds the deferred block counts. *)
let leave t =
  t.run_depth <- t.run_depth - 1;
  if t.run_depth = 0 then fold_block_counts t

(** Execute optimized code [f] on [args] = [this :: params], returning the
    function result (possibly via a deopt into the interpreter). Runs the
    templated executor whenever it is equivalent to the per-instruction
    loop: templates enabled, profiler off (per-pc attribution needs
    per-instruction sites), no fault injector armed, and the stream
    fusible. When the outermost call returns or raises, the templated
    blocks' deferred counts are folded into {!Counters}. *)
let run t (host : host) (f : Lir.func) (args : Value.t array) : Value.t =
  t.run_depth <- t.run_depth + 1;
  match run_any t host f args with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e
