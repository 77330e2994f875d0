(* Tests for superinstruction-template execution and roster sharding:
   (a) exhaustive block-splitting coverage: one sample of every LIR
       constructor, classified by a wildcard-free match (so adding a
       constructor breaks this test at compile time), laid out and checked
       against the fusion invariants (lib/machine/README.md);
   (b) layout rejections: the streams the fused executor must refuse
       (no terminator at the end, fall-through off the end, branch target
       or register operand out of range, empty stream);
   (c) templated execution is bit-identical to the per-instruction loop on
       real workloads (every simulated field of the benchmark record);
   (d) the cycle-attribution profiler still reconciles exactly with
       templates on (summarize fails the run otherwise);
   (d') the deferred block counters are exact: after every outermost call
       the full counter record equals the per-instruction loop's, on
       roster programs, speculation-breaking code (deopt and Class Cache
       exception exits), nested guest calls and a guest error raised out
       of an optimized frame;
   (e) shard-merge determinism: row envelopes merged in any completion
       order produce the identical run record, and malformed merges fail
       loudly. *)

open Tce_runner
module Lir = Tce_jit.Lir
module Predecode = Tce_machine.Predecode
module Template = Tce_machine.Template
module W = Tce_workloads.Workload

(* --- (a) exhaustive constructor coverage --- *)

(* The block-splitting contract, restated per constructor with no wildcard:
   the compiler forces this test to grow with the instruction set. *)
let expected_terminator : Lir.op -> bool = function
  | Lir.AluOv _ | Lir.CheckedLoad _ | Lir.Branch _ | Lir.FBranch _
  | Lir.Jmp _ | Lir.CallFn _ | Lir.CallRt _ | Lir.CallRtChecked _
  | Lir.Ret _ | Lir.Deopt _ | Lir.StoreClassCache _
  | Lir.StoreClassCacheArray _ ->
    true
  | Lir.MovImm _ | Lir.Mov _ | Lir.Alu _ | Lir.Alu32 _ | Lir.Load _
  | Lir.LoadIdx _ | Lir.Store _ | Lir.StoreIdx _ | Lir.FMov _
  | Lir.FMovImm _ | Lir.FLoad _ | Lir.FLoadIdx _ | Lir.FStore _
  | Lir.FStoreIdx _ | Lir.FAdd _ | Lir.FSub _ | Lir.FMul _ | Lir.FDiv _
  | Lir.FSqrt _ | Lir.FNeg _ | Lir.FAbs _ | Lir.CvtIF _ | Lir.TruncFI _
  | Lir.MovClassID _ | Lir.MovClassIDArray _ | Lir.Profile _
  | Lir.ProfileStore _ ->
    false

(* Only [Ret], [Deopt] and [Jmp] never continue at pc+1. *)
let expected_falls_through : Lir.op -> bool = function
  | Lir.Ret _ | Lir.Deopt _ | Lir.Jmp _ -> false
  | _ -> true

(* One sample per LIR constructor, register operands within [0, 8). Branch
   labels are patched by the harness to point at the stream's final Ret. *)
let samples : (string * Lir.op) list =
  [
    ("MovImm", Lir.MovImm (0, 7));
    ("Mov", Lir.Mov (0, 1));
    ("Alu", Lir.Alu (Lir.Add, 0, 1, Lir.Reg 2));
    ("Alu32", Lir.Alu32 (Lir.Xor, 0, 1, Lir.Imm 3));
    ("AluOv", Lir.AluOv (Lir.Add, 0, 1, Lir.Reg 2, -1));
    ("Load", Lir.Load (0, 1, 8));
    ("CheckedLoad", Lir.CheckedLoad (0, 1, 8, 42, 0));
    ("LoadIdx", Lir.LoadIdx (0, 1, 2, 8));
    ("Store", Lir.Store (0, 8, Lir.Reg 1));
    ("StoreIdx", Lir.StoreIdx (0, 1, 8, Lir.Imm 5));
    ("FMov", Lir.FMov (0, 1));
    ("FMovImm", Lir.FMovImm (0, 2.5));
    ("FLoad", Lir.FLoad (0, 1, 8));
    ("FLoadIdx", Lir.FLoadIdx (0, 1, 2, 8));
    ("FStore", Lir.FStore (0, 8, 1));
    ("FStoreIdx", Lir.FStoreIdx (0, 1, 8, 2));
    ("FAdd", Lir.FAdd (0, 1, 2));
    ("FSub", Lir.FSub (0, 1, 2));
    ("FMul", Lir.FMul (0, 1, 2));
    ("FDiv", Lir.FDiv (0, 1, 2));
    ("FSqrt", Lir.FSqrt (0, 1));
    ("FNeg", Lir.FNeg (0, 1));
    ("FAbs", Lir.FAbs (0, 1));
    ("CvtIF", Lir.CvtIF (0, 1));
    ("TruncFI", Lir.TruncFI (0, 1));
    ("Branch", Lir.Branch (Lir.Eq, 0, Lir.Imm 0, -1));
    ("FBranch", Lir.FBranch (Lir.FLt, 0, 1, -1));
    ("Jmp", Lir.Jmp (-1));
    ("CallFn", Lir.CallFn (0, [| 1 |], 2, 0));
    ("CallRt", Lir.CallRt (Lir.Rt_box_double, [||], [| 0 |], Some 1, None));
    ("CallRtChecked", Lir.CallRtChecked (Lir.Rt_generic_get_elem, [| 1; 2 |], Some 3, 0));
    ("Ret", Lir.Ret 0);
    ("Deopt", Lir.Deopt 0);
    ("MovClassID", Lir.MovClassID 0);
    ("MovClassIDArray", Lir.MovClassIDArray (1, 0));
    ("StoreClassCache", Lir.StoreClassCache (1, 0, Lir.Reg 2, 0));
    ("StoreClassCacheArray", Lir.StoreClassCacheArray (1, 1, 2, 0, Lir.Imm 5, 0));
    ("Profile", Lir.Profile (1, 0, 0));
    ("ProfileStore", Lir.ProfileStore (1, 0, 0, Lir.Ps_reg 2));
  ]

let mk_func ?(n_regs = 8) ?(n_fregs = 8) code =
  {
    Lir.fn_id = 0;
    opt_id = 0;
    name = "template-test";
    code = Array.of_list (List.map (Lir.inst Tce_jit.Categories.C_other) code);
    deopts = [||];
    reprs = [||];
    n_regs;
    n_fregs;
    code_addr = 0x5000_0000;
    spec_deps = [];
    invalidated = false;
    deopt_hits = 0;
  }

(* Patch [-1] placeholder labels to [tgt]. *)
let patch tgt (op : Lir.op) : Lir.op =
  match op with
  | Lir.AluOv (a, d, s, o, l) when l = -1 -> Lir.AluOv (a, d, s, o, tgt)
  | Lir.Branch (c, r, o, l) when l = -1 -> Lir.Branch (c, r, o, tgt)
  | Lir.FBranch (c, a, b, l) when l = -1 -> Lir.FBranch (c, a, b, tgt)
  | Lir.Jmp l when l = -1 -> Lir.Jmp tgt
  | op -> op

let check_invariants name (pf : Predecode.func) (t : Template.t) =
  let n = Array.length pf.Predecode.ops in
  let blocks = t.Template.blocks in
  (* blocks partition [0, n) in order *)
  let covered =
    Array.fold_left
      (fun next (b : Template.block) ->
        Alcotest.(check int) (name ^ ": blocks are contiguous") next
          b.Template.b_start;
        Alcotest.(check bool) (name ^ ": block indexed at its leader") true
          (t.Template.block_of_pc.(b.Template.b_start) >= 0);
        next + b.Template.b_len)
      0 blocks
  in
  Alcotest.(check int) (name ^ ": blocks cover the stream") n covered;
  Array.iter
    (fun (b : Template.block) ->
      (* only the last instruction may be a terminator, and it is one
         exactly when the block says so *)
      for pc = b.Template.b_start to b.Template.b_start + b.Template.b_len - 2
      do
        Alcotest.(check bool)
          (Printf.sprintf "%s: pc %d is fused mid-block" name pc)
          false
          (Template.is_terminator pf.Predecode.ops.(pc))
      done;
      let last = b.Template.b_start + b.Template.b_len - 1 in
      Alcotest.(check bool) (name ^ ": b_terminated matches the last op")
        b.Template.b_terminated
        (Template.is_terminator pf.Predecode.ops.(last));
      (* every static successor is a block leader *)
      List.iter
        (fun tgt ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: branch target %d is a leader" name tgt)
            true
            (t.Template.block_of_pc.(tgt) >= 0))
        (Template.targets pf.Predecode.ops.(last));
      if b.Template.b_terminated && Template.falls_through pf.Predecode.ops.(last)
         && last + 1 < n
      then
        Alcotest.(check bool) (name ^ ": fall-through lands on a leader") true
          (t.Template.block_of_pc.(last + 1) >= 0);
      (* en-bloc summary = per-instruction summaries added up *)
      let whole =
        Template.summarize pf ~start:b.Template.b_start ~len:b.Template.b_len
      in
      let step =
        List.init b.Template.b_len (fun i ->
            Template.summarize pf ~start:(b.Template.b_start + i) ~len:1)
      in
      let add f = List.fold_left (fun a s -> a + f s) 0 step in
      Alcotest.(check (list int)) (name ^ ": summary is additive per category")
        (Array.to_list whole.Template.s_by_cat)
        (List.fold_left
           (fun acc (s : Template.summary) ->
             List.map2 ( + ) acc (Array.to_list s.Template.s_by_cat))
           (List.map (fun _ -> 0) (Array.to_list whole.Template.s_by_cat))
           step);
      Alcotest.(check int) (name ^ ": guards add up") whole.Template.s_guards
        (add (fun s -> s.Template.s_guards));
      Alcotest.(check int) (name ^ ": loads add up") whole.Template.s_loads
        (add (fun s -> s.Template.s_loads));
      Alcotest.(check int) (name ^ ": stores add up") whole.Template.s_stores
        (add (fun s -> s.Template.s_stores));
      Alcotest.(check int) (name ^ ": branches add up")
        whole.Template.s_branches
        (add (fun s -> s.Template.s_branches)))
    blocks

let test_every_constructor () =
  Alcotest.(check int) "one sample per LIR constructor" 39
    (List.length samples);
  List.iter
    (fun (name, op) ->
      let term = expected_terminator op in
      let falls = expected_falls_through op in
      let code =
        if not falls then [ patch 0 op ]
        else [ patch 2 op; Lir.MovImm (0, 1); Lir.Ret 0 ]
      in
      let pf = Predecode.decode (mk_func code) in
      Alcotest.(check bool) (name ^ ": is_terminator") term
        (Template.is_terminator pf.Predecode.ops.(0));
      Alcotest.(check bool) (name ^ ": falls_through") falls
        (Template.falls_through pf.Predecode.ops.(0));
      match Template.layout pf with
      | None -> Alcotest.failf "%s: layout rejected a well-formed stream" name
      | Some t ->
        check_invariants name pf t;
        if falls then
          (* a terminator opens a leader at pc 1: its block is a singleton;
             a fusible op is folded into one straight-line block *)
          Alcotest.(check int)
            (name ^ ": first block length")
            (if term then 1 else 3)
            t.Template.blocks.(0).Template.b_len)
    samples

let test_pseudo_ops_transparent () =
  (* measurement pseudo-ops contribute nothing to the en-bloc summary *)
  List.iter
    (fun op ->
      let pf = Predecode.decode (mk_func [ op; Lir.Ret 0 ]) in
      let s = Template.summarize pf ~start:0 ~len:1 in
      Alcotest.(check int) "pseudo-op adds no dynamic instruction" 0
        (Array.fold_left ( + ) 0 s.Template.s_by_cat))
    [
      Lir.Profile (1, 0, 0);
      Lir.ProfileStore (1, 0, 0, Lir.Ps_reg 2);
      Lir.ProfileStore (1, 0, 0, Lir.Ps_classid 7);
    ]

let test_layout_rejections () =
  let reject name code ~n_regs ~n_fregs =
    match Template.layout (Predecode.decode (mk_func ~n_regs ~n_fregs code)) with
    | None -> ()
    | Some _ -> Alcotest.failf "%s: layout accepted a stream it must reject" name
  in
  reject "no terminator at the end" [ Lir.MovImm (0, 1) ] ~n_regs:8 ~n_fregs:1;
  reject "fall-through terminator runs off the end"
    [ Lir.Branch (Lir.Eq, 0, Lir.Imm 0, 0) ]
    ~n_regs:8 ~n_fregs:1;
  reject "branch target out of range" [ Lir.Jmp 5 ] ~n_regs:8 ~n_fregs:1;
  reject "int register out of range"
    [ Lir.Mov (0, 99); Lir.Ret 0 ]
    ~n_regs:8 ~n_fregs:1;
  reject "float register out of range"
    [ Lir.FMov (0, 7); Lir.Ret 0 ]
    ~n_regs:8 ~n_fregs:2;
  reject "classid-array index out of range"
    [ Lir.MovClassIDArray (4, 0); Lir.Ret 0 ]
    ~n_regs:8 ~n_fregs:1;
  Alcotest.(check bool) "empty stream" true
    (Template.layout (Predecode.decode (mk_func [])) = None)

(* --- (c) bit-identity on real workloads --- *)

let spot_names =
  [ "richards"; "deltablue"; "crypto-md5"; "splay"; "json-stringify-tinderbox" ]

let workload name =
  match Tce_workloads.Workloads.by_name name with
  | Some w -> w
  | None -> Alcotest.failf "workload %s missing from the registry" name

let no_templates =
  { Tce_engine.Engine.default_config with templates = false }

let test_bit_identity_vs_per_instruction () =
  List.iter
    (fun name ->
      let w = workload name in
      let templated = Runner.run_one w in
      let reference = Runner.run_one ~config:no_templates w in
      Alcotest.(check bool)
        (name ^ ": templated record = per-instruction record")
        true
        (Record.equal_deterministic templated reference))
    spot_names

(* --- (d) profile reconciliation with templates on --- *)

let test_profile_reconciles_with_templates () =
  (* summarize raises unless every simulated cycle and baseline instruction
     lands in exactly one (function, pc, cost) cell; run_pair_profiled
     additionally fails on an off/on checksum mismatch. Default config =
     templates on. *)
  let p = Tce_metrics.Harness.run_pair_profiled (workload "richards") in
  Alcotest.(check string) "profiled the right workload" "richards"
    p.Tce_metrics.Harness.p_name

(* --- (d') deferred block counters --- *)

module E = Tce_engine.Engine
module Counters = Tce_machine.Counters

(* Every field of the counter record, per-site object-load table included
   (sorted: the table's iteration order is not part of its value). *)
let counters_repr (c : Counters.t) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let loads =
    List.sort compare
      (Tce_support.Int_table.fold (fun k v acc -> (k, v) :: acc)
         c.Counters.obj_loads [])
  in
  Printf.sprintf
    "by_cat=[%s] by_check_kind=[%s] guards_obj_load=%d opt_loads=%d \
     opt_stores=%d opt_branches=%d opt_fp=%d opt_cycles=%d \
     baseline_instrs=%d baseline_cycles=%h deopts=%d cc_exception_deopts=%d \
     tierups=%d obj_loads=[%s] obj_loads_first_line=%d obj_loads_total=%d"
    (ints c.Counters.by_cat) (ints c.by_check_kind) c.guards_obj_load
    c.opt_loads c.opt_stores c.opt_branches c.opt_fp c.opt_cycles
    c.baseline_instrs c.baseline_cycles c.deopts c.cc_exception_deopts
    c.tierups
    (String.concat ";"
       (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) loads))
    c.obj_loads_first_line c.obj_loads_total

(* Run [src] on a templated and a per-instruction engine in lockstep:
   [run_main], then [calls] outermost [bench()] calls. After each one
   (returned or raised) the results and the full counter records must be
   equal. Returns the templated engine and how many steps raised a guest
   error. *)
let lockstep ?(mechanism = true) name src ~calls =
  let engine templates =
    E.of_source
      ~config:{ E.default_config with E.templates; E.mechanism }
      src
  in
  let tpl = engine true and ref_ = engine false in
  E.set_measuring tpl true;
  E.set_measuring ref_ true;
  let outcome f e =
    match f e with
    | v -> Ok v
    | exception Tce_engine.Runtime.Guest_error msg -> Error msg
  in
  let errors = ref 0 in
  let step what f =
    let a = outcome f tpl and b = outcome f ref_ in
    if Result.is_error a then incr errors;
    Alcotest.(check (result int string))
      (Printf.sprintf "%s %s: result" name what) b a;
    Alcotest.(check string)
      (Printf.sprintf "%s %s: counters" name what)
      (counters_repr ref_.E.counters)
      (counters_repr tpl.E.counters)
  in
  step "main" E.run_main;
  for i = 1 to calls do
    step (Printf.sprintf "bench() #%d" i) (fun e -> E.call_by_name e "bench" [||])
  done;
  (tpl, !errors)

let test_counters_roster () =
  List.iter
    (fun name ->
      let w = workload name in
      ignore (lockstep name w.W.source ~calls:w.W.iterations : E.t * int))
    (spot_names @ [ "bitops-3bit-bits-in-byte"; "controlflow-recursive" ])

(* Monomorphic warm-up, then from call 9 a double stored into a speculated
   SMI slot mid-loop while drive()'s optimized frame is live. Mechanism on,
   that raises a Class Cache exception; off, the kept check deopts. *)
let churn_src =
  {|
function P(s) { this.a = s; this.b = s + 1; this.c = s + 2; }
var pool = array_new(0);
function setup() { for (var i = 0; i < 16; i++) { push(pool, new P(i)); } }
setup();
var calls = 0;
function rd(o) { return o.a + o.b + o.c; }
function drive() {
  var acc = 0;
  for (var i = 0; i < 400; i++) {
    var o = pool[i & 15];
    acc = (acc + rd(o)) & 65535;
    if (calls >= 9 && i == 200 + calls) { o.b = 0.5 + calls; }
  }
  return acc;
}
function bench() { calls = calls + 1; return drive(); }
|}

let test_counters_churn () =
  let on, _ = lockstep "churn (mechanism on)" churn_src ~calls:14 in
  Alcotest.(check bool) "a Class Cache exception left optimized code" true
    (on.E.counters.Counters.cc_exception_deopts > 0);
  let off, _ =
    lockstep ~mechanism:false "churn (mechanism off)" churn_src ~calls:14
  in
  Alcotest.(check bool) "a failed check deoptimized" true
    (off.E.counters.Counters.deopts > 0)

(* Optimized recursion: every level is a nested run. *)
let nested_src =
  {|
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
function bench() {
  var acc = 0;
  for (var i = 0; i < 4; i++) { acc = acc + fib(12 + i); }
  return acc;
}
|}

let test_counters_nested () =
  ignore (lockstep "nested calls" nested_src ~calls:10 : E.t * int)

(* From call 12 the builtin called from bench()'s optimized loop raises a
   guest error, unwinding through the live run. *)
let error_src =
  {|
var calls = 0;
function bench() {
  calls = calls + 1;
  var want = 0;
  if (calls >= 12) { want = 1; }
  var acc = 0;
  for (var i = 0; i < 300; i++) {
    acc = (acc + i * 3) & 65535;
    if (i == 250) { assert_eq(want, 0); }
  }
  return acc;
}
|}

let test_counters_guest_error () =
  let _, errors = lockstep "guest error" error_src ~calls:14 in
  Alcotest.(check int) "calls 12-14 raised" 3 errors

(* --- (e) shard-merge determinism --- *)

let test_positions_partition () =
  List.iter
    (fun (shards, n) ->
      let all =
        List.concat_map
          (fun shard -> Shard.positions ~shard ~shards ~n)
          (List.init shards (fun i -> i + 1))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "shards=%d n=%d: positions partition the schedule"
           shards n)
        (List.init n Fun.id)
        (List.sort compare all))
    [ (1, 5); (2, 5); (3, 5); (5, 5); (7, 5); (4, 0); (3, 55) ]

let test_merge_rows_order_independent () =
  let rows = [ (0, "a"); (1, "b"); (2, "c"); (3, "d") ] in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (fun y -> y <> x) l)))
        l
  in
  List.iter
    (fun perm ->
      match Shard.merge_rows ~what:"row" ~expected:4 perm with
      | Ok merged ->
        Alcotest.(check (list string)) "any completion order, same merge"
          [ "a"; "b"; "c"; "d" ] merged
      | Error e -> Alcotest.failf "merge failed: %s" e)
    (permutations rows)

let test_merge_rows_failures () =
  let fails what rows ~expected =
    match Shard.merge_rows ~what ~expected rows with
    | Ok _ -> Alcotest.failf "%s: merge must fail" what
    | Error e ->
      Alcotest.(check bool) (what ^ ": error names the row kind") true
        (Astring.String.is_infix ~affix:what e)
  in
  fails "missing-row" [ (0, "a"); (2, "c") ] ~expected:3;
  fails "dup-row" [ (0, "a"); (0, "b") ] ~expected:2;
  fails "range-row" [ (5, "a") ] ~expected:2

let test_parse_spec () =
  Alcotest.(check bool) "2/4 parses" true (Shard.parse_spec "2/4" = Ok (2, 4));
  List.iter
    (fun s ->
      match Shard.parse_spec s with
      | Ok _ -> Alcotest.failf "%S must not parse" s
      | Error _ -> ())
    [ "0/4"; "5/4"; "x/4"; "2"; "2/"; "/4"; "-1/4" ]

(* Row envelopes + merge on real records: merging permuted completion
   orders yields the identical normalized run. *)
let test_merged_record_deterministic () =
  let ws = List.map workload [ "richards"; "deltablue"; "crypto-md5" ] in
  let rows =
    List.mapi (fun i w -> (i, Runner.run_one w)) ws
  in
  let through_wire order =
    let rows' =
      List.map
        (fun (i, r) ->
          match
            Result.bind
              (Tce_obs.Json.of_string
                 (Tce_obs.Json.to_string (Record.row_to_json ~index:i r)))
              Record.row_of_json
          with
          | Ok row -> row
          | Error e -> Alcotest.failf "row round-trip: %s" e)
        order
    in
    match Shard.merge_rows ~what:"bench-row" ~expected:(List.length ws) rows' with
    | Error e -> Alcotest.failf "merge: %s" e
    | Ok merged ->
      Record.normalize_run
        (Store.make_run ~shards:2 ~jobs:1 ~host_wall_seconds:1.5 merged)
  in
  let a = through_wire rows
  and b = through_wire (List.rev rows) in
  Alcotest.(check bool) "permuted completion order, identical record" true
    (Record.equal_run a b);
  Alcotest.(check string) "normalized runs serialize identically"
    (Tce_obs.Json.to_string (Record.run_to_json a))
    (Tce_obs.Json.to_string (Record.run_to_json b))

let test_campaign_row_round_trip () =
  let cell =
    {
      Campaign.workload = "richards";
      point = "cc-drop";
      spec = "cc-drop:always";
      seed = 12345;
      fires = 7;
      detections = 0;
      lost_victims = 0;
      delivered_late = 0;
      deopts_delta = 1;
      cycles_delta = -42.5;
      outcome = Campaign.Degraded;
      detail = "";
    }
  in
  match
    Result.bind
      (Tce_obs.Json.of_string
         (Tce_obs.Json.to_string (Campaign.row_to_json ~index:9 cell)))
      Campaign.row_of_json
  with
  | Error e -> Alcotest.failf "fault-cell round-trip: %s" e
  | Ok (i, c) ->
    Alcotest.(check int) "index survives the wire" 9 i;
    Alcotest.(check bool) "cell survives the wire" true (c = cell)

let () =
  Alcotest.run "template+shard"
    [
      ( "layout",
        [
          Alcotest.test_case "every LIR constructor" `Quick
            test_every_constructor;
          Alcotest.test_case "pseudo-ops transparent" `Quick
            test_pseudo_ops_transparent;
          Alcotest.test_case "rejections" `Quick test_layout_rejections;
        ] );
      ( "execution",
        [
          Alcotest.test_case "bit-identity vs per-instruction" `Slow
            test_bit_identity_vs_per_instruction;
          Alcotest.test_case "profile reconciles with templates" `Slow
            test_profile_reconciles_with_templates;
        ] );
      ( "deferred",
        [
          Alcotest.test_case "roster programs" `Slow test_counters_roster;
          Alcotest.test_case "deopt and Class Cache exits" `Quick
            test_counters_churn;
          Alcotest.test_case "nested guest calls" `Quick test_counters_nested;
          Alcotest.test_case "guest error in optimized code" `Quick
            test_counters_guest_error;
        ] );
      ( "shard",
        [
          Alcotest.test_case "positions partition" `Quick
            test_positions_partition;
          Alcotest.test_case "merge order-independent" `Quick
            test_merge_rows_order_independent;
          Alcotest.test_case "merge failures" `Quick test_merge_rows_failures;
          Alcotest.test_case "parse spec" `Quick test_parse_spec;
          Alcotest.test_case "merged record deterministic" `Slow
            test_merged_record_deterministic;
          Alcotest.test_case "campaign row round-trip" `Quick
            test_campaign_row_round_trip;
        ] );
    ]
