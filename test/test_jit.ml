(* Tests for the JIT layer: bytecode compiler, feedback, inliner, optimizer. *)

open Tce_jit

let compile src = Bc_compile.compile_source src

(* --- bytecode compiler --- *)

let test_bc_shape () =
  let p = compile "function add(a, b) { return a + b; } print(add(1, 2));" in
  Alcotest.(check int) "two functions (add + %main)" 2 (Array.length p.Bytecode.funcs);
  let add = Option.get (Bytecode.find_func p "add") in
  Alcotest.(check int) "params" 2 add.Bytecode.n_params;
  (match add.Bytecode.code with
  | [| Bytecode.BinOp (Tce_minijs.Ast.Add, _, 1, 2, _); Bytecode.Return _ |] -> ()
  | _ -> Alcotest.failf "unexpected code: %a" (fun ppf () -> Bytecode.pp_func ppf add) ())

let test_bc_globals () =
  let p = compile "var g = 1; function f() { g = g + 1; return g; } print(f());" in
  Alcotest.(check (array string)) "globals" [| "g" |] p.Bytecode.globals;
  let f = Option.get (Bytecode.find_func p "f") in
  let has_get = Array.exists (function Bytecode.GetGlobal _ -> true | _ -> false) f.Bytecode.code in
  let has_set = Array.exists (function Bytecode.SetGlobal _ -> true | _ -> false) f.Bytecode.code in
  Alcotest.(check bool) "reads global" true has_get;
  Alcotest.(check bool) "writes global" true has_set

let test_bc_ctor_reserve () =
  let p = compile "function Pt(x, y) { this.x = x; this.y = y; }\nvar p = new Pt(1, 2);" in
  let pt = Option.get (Bytecode.find_func p "Pt") in
  Alcotest.(check bool) "is ctor" true pt.Bytecode.is_ctor;
  Alcotest.(check int) "reserve = 2 props + slack" 4 pt.Bytecode.reserve_props;
  (* ctors implicitly return this (register 0) *)
  match pt.Bytecode.code.(Array.length pt.Bytecode.code - 1) with
  | Bytecode.Return 0 -> ()
  | _ -> Alcotest.fail "ctor must return this"

let test_bc_loops_and_jumps () =
  let p = compile "var s = 0; for (var i = 0; i < 10; i++) { if (i == 3) continue; if (i == 7) break; s = s + i; }" in
  let main = p.Bytecode.funcs.(p.Bytecode.main) in
  (* every jump target must be a valid pc *)
  let n = Array.length main.Bytecode.code in
  Array.iter
    (function
      | Bytecode.Jump l | JumpIfFalse (_, l) | JumpIfTrue (_, l) ->
        Alcotest.(check bool) "target in range" true (l >= 0 && l <= n)
      | _ -> ())
    main.Bytecode.code

let test_bc_errors () =
  let fails src =
    try ignore (compile src); false with Bc_compile.Error _ -> true
  in
  Alcotest.(check bool) "unbound var" true (fails "x = 1;");
  Alcotest.(check bool) "unknown function" true (fails "nosuch(1);");
  Alcotest.(check bool) "builtin arity" true (fails "print(1, 2);");
  Alcotest.(check bool) "break outside loop" true (fails "break;");
  Alcotest.(check bool) "unknown ctor" true (fails "var x = new Nope();")

let test_bc_logical_ops_control_flow () =
  let p = compile "var a = 1; var b = 2; var c = a && b; var d = a || b;" in
  let main = p.Bytecode.funcs.(p.Bytecode.main) in
  (* && and || must compile to jumps, not BinOps *)
  Array.iter
    (function
      | Bytecode.BinOp ((Tce_minijs.Ast.LAnd | Tce_minijs.Ast.LOr), _, _, _, _) ->
        Alcotest.fail "logical op leaked into a BinOp"
      | _ -> ())
    main.Bytecode.code

(* --- feedback --- *)

let test_feedback_progression () =
  let fb = [| Feedback.S_prop Feedback.Ic_uninit |] in
  let sh c s = { Feedback.classid = c; slot = s; transition_to = None } in
  ignore (Feedback.record_prop fb 0 (sh 1 1));
  (match fb.(0) with
  | Feedback.S_prop (Feedback.Ic_mono _) -> ()
  | _ -> Alcotest.fail "mono");
  ignore (Feedback.record_prop fb 0 (sh 1 1));
  (match fb.(0) with
  | Feedback.S_prop (Feedback.Ic_mono _) -> ()
  | _ -> Alcotest.fail "stays mono");
  ignore (Feedback.record_prop fb 0 (sh 2 1));
  (match fb.(0) with
  | Feedback.S_prop (Feedback.Ic_poly l) ->
    Alcotest.(check int) "two shapes" 2 (List.length l)
  | _ -> Alcotest.fail "poly");
  ignore (Feedback.record_prop fb 0 (sh 3 1));
  ignore (Feedback.record_prop fb 0 (sh 4 1));
  ignore (Feedback.record_prop fb 0 (sh 5 1));
  match fb.(0) with
  | Feedback.S_prop Feedback.Ic_mega -> ()
  | _ -> Alcotest.fail "mega after more than 4 shapes"

let test_feedback_binop_join () =
  let open Feedback in
  Alcotest.(check bool) "smi+smi" true (join_binop Bf_smi Bf_smi = Bf_smi);
  Alcotest.(check bool) "smi+number" true (join_binop Bf_smi Bf_number = Bf_number);
  Alcotest.(check bool) "string+smi" true (join_binop Bf_string Bf_smi = Bf_generic);
  Alcotest.(check bool) "ref+ref" true (join_binop Bf_ref Bf_ref = Bf_ref);
  Alcotest.(check bool) "none is identity" true (join_binop Bf_none Bf_string = Bf_string)

(* --- inliner --- *)

let test_inline_simple_call () =
  let p = compile "function sq(x) { return x * x; } function hot(n) { return sq(n) + sq(n + 1); } print(hot(3));" in
  let hot = Option.get (Bytecode.find_func p "hot") in
  match Inline.expand p hot with
  | Some shadow ->
    Alcotest.(check bool) "no Call left" true
      (not
         (Array.exists
            (function Bytecode.Call _ -> true | _ -> false)
            shadow.Bytecode.code));
    Alcotest.(check bool) "more registers" true
      (shadow.Bytecode.n_regs > hot.Bytecode.n_regs);
    Alcotest.(check bool) "more feedback slots" true
      (Array.length shadow.Bytecode.fb > Array.length hot.Bytecode.fb)
  | None -> Alcotest.fail "expected inlining"

let test_inline_skips_recursive () =
  let p = compile "function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } print(fib(5));" in
  let fib = Option.get (Bytecode.find_func p "fib") in
  Alcotest.(check bool) "self-recursive not inlined" true (Inline.expand p fib = None)

let test_inline_ctor () =
  let p = compile "function Pt(x) { this.x = x; } function mk(n) { var t = 0; for (var i = 0; i < n; i++) { var o = new Pt(i); t = t + o.x; } return t; } print(mk(3));" in
  let pt = Option.get (Bytecode.find_func p "Pt") in
  (* base_class must exist for ctor inlining; simulate runtime creation *)
  let heap = Tce_vm.Heap.create () in
  pt.Bytecode.base_class <-
    Some
      (Tce_vm.Hidden_class.Registry.fresh heap.Tce_vm.Heap.reg
         ~kind:Tce_vm.Hidden_class.K_object ~name:"Pt" ~prop_names:[||]);
  let mk = Option.get (Bytecode.find_func p "mk") in
  match Inline.expand p mk with
  | Some shadow ->
    Alcotest.(check bool) "AllocCtor emitted" true
      (Array.exists
         (function Bytecode.AllocCtor (_, _) -> true | _ -> false)
         shadow.Bytecode.code);
    Alcotest.(check bool) "New gone" true
      (not (Array.exists (function Bytecode.New _ -> true | _ -> false) shadow.Bytecode.code))
  | None -> Alcotest.fail "expected ctor inlining"

(* --- optimizer --- *)

(* Build a tiny engine to produce feedback + profiles, then inspect code. *)
module E = Tce_engine.Engine

let optimized_code ?(mechanism = true) ~fname src =
  let config = { E.default_config with E.mechanism } in
  let t = E.of_source ~config src in
  E.set_measuring t false;
  ignore (E.run_main t);
  for _ = 1 to 9 do
    ignore (E.call_by_name t "bench" [||])
  done;
  let fn = Option.get (Bytecode.find_func t.E.prog fname) in
  match fn.Bytecode.opt with
  | Some code -> code
  | None -> Alcotest.failf "%s was not optimized" fname

let count_cat (code : Lir.func) cat =
  Array.fold_left
    (fun acc (i : Lir.inst) -> if i.Lir.cat = cat then acc + 1 else acc)
    0 code.Lir.code

let mono_src =
  {|
function Box(v) { this.v = v; }
function get(b) { return b.v; }
var boxes = array_new(0);
for (var i = 0; i < 50; i++) { push(boxes, new Box(i)); }
function bench() {
  var s = 0;
  for (var i = 0; i < 50; i++) { s = (s + get(boxes[i])) & 65535; }
  return s;
}
|}

let test_opt_removes_checks_with_mechanism () =
  let off = optimized_code ~mechanism:false ~fname:"bench" mono_src in
  let on = optimized_code ~mechanism:true ~fname:"bench" mono_src in
  let c_off = count_cat off Categories.C_check in
  let c_on = count_cat on Categories.C_check in
  Alcotest.(check bool)
    (Printf.sprintf "fewer static checks with the mechanism (%d < %d)" c_on c_off)
    true (c_on < c_off);
  Alcotest.(check bool) "speculation dependencies registered" true
    (on.Lir.spec_deps <> []);
  Alcotest.(check bool) "no speculation without the mechanism" true
    (off.Lir.spec_deps = [])

let test_opt_special_stores_emitted () =
  let src =
    {|
function K(v) { this.v = v; }
var os = array_new(0);
var gsrc = 7;
for (var i = 0; i < 40; i++) { push(os, new K(i)); }
function bench() {
  var n = os.length;
  for (var i = 0; i < n; i++) { os[i].v = gsrc; }
  gsrc = 1;
  return n;
}
|}
  in
  let on = optimized_code ~mechanism:true ~fname:"bench" src in
  let has op = Array.exists (fun (i : Lir.inst) -> op i.Lir.op) on.Lir.code in
  Alcotest.(check bool) "movClassID emitted" true
    (has (function Lir.MovClassID _ -> true | _ -> false));
  Alcotest.(check bool) "movStoreClassCache emitted" true
    (has (function Lir.StoreClassCache _ -> true | _ -> false));
  let off = optimized_code ~mechanism:false ~fname:"bench" src in
  let has_off op = Array.exists (fun (i : Lir.inst) -> op i.Lir.op) off.Lir.code in
  Alcotest.(check bool) "no special stores without the mechanism" false
    (has_off (function Lir.StoreClassCache _ -> true | _ -> false))

let test_opt_provably_safe_stores_are_plain () =
  (* storing a value the compiler knows is SMI into an SMI-profiled slot
     cannot break the profile: no special store *)
  let src =
    {|
function K(v) { this.v = v; }
var os = array_new(0);
for (var i = 0; i < 40; i++) { push(os, new K(i)); }
function bench() {
  var n = os.length;
  for (var i = 0; i < n; i++) { os[i].v = i * 2; }
  return n;
}
|}
  in
  let on = optimized_code ~mechanism:true ~fname:"bench" src in
  Alcotest.(check bool) "no special store needed" true
    (not
       (Array.exists
          (fun (i : Lir.inst) ->
            match i.Lir.op with Lir.StoreClassCache _ -> true | _ -> false)
          on.Lir.code))

let test_opt_deopt_metadata () =
  let code = optimized_code ~mechanism:true ~fname:"bench" mono_src in
  (* every deopt id referenced by the code exists in the table *)
  Array.iter
    (fun (i : Lir.inst) ->
      match i.Lir.op with
      | Lir.Deopt id ->
        Alcotest.(check bool) "deopt id valid" true
          (id >= 0 && id < Array.length code.Lir.deopts)
      | _ -> ())
    code.Lir.code;
  (* branch targets are in range *)
  let n = Array.length code.Lir.code in
  Array.iter
    (fun (i : Lir.inst) ->
      match i.Lir.op with
      | Lir.Branch (_, _, _, l) | Lir.FBranch (_, _, _, l) | Lir.Jmp l
      | Lir.AluOv (_, _, _, _, l) ->
        Alcotest.(check bool) "target in range" true (l >= 0 && l < n)
      | _ -> ())
    code.Lir.code

let test_opt_strength_reduction () =
  let src =
    {|
var arr = array_new(64);
for (var i = 0; i < 64; i++) { arr[i] = i * 7; }
function bench() {
  var acc = 0;
  for (var i = 0; i < 64; i++) { acc = (acc + arr[i]) % 1048576; }
  return acc;
}
|}
  in
  let code = optimized_code ~mechanism:true ~fname:"bench" src in
  (* power-of-two modulus must not use the 20-cycle integer remainder *)
  Alcotest.(check bool) "no Rem for %% 2^k" true
    (not
       (Array.exists
          (fun (i : Lir.inst) ->
            match i.Lir.op with
            | Lir.Alu (Lir.Rem, _, _, _) | Lir.Alu32 (Lir.Rem, _, _, _) -> true
            | _ -> false)
          code.Lir.code))

let test_opt_unboxed_float_locals () =
  let src =
    {|
function bench() {
  var sum = 0.0;
  for (var i = 0; i < 100; i++) { sum = sum + i * 0.5; }
  return sum;
}
|}
  in
  let code = optimized_code ~mechanism:true ~fname:"bench" src in
  (* the accumulator must live unboxed: no Rt_box_double in the loop *)
  let boxes =
    Array.fold_left
      (fun acc (i : Lir.inst) ->
        match i.Lir.op with
        | Lir.CallRt (Lir.Rt_box_double, _, _, _, _) -> acc + 1
        | _ -> acc)
      0 code.Lir.code
  in
  (* the single permitted box is the tagged return of the accumulator *)
  Alcotest.(check bool) "no boxing in the float loop" true (boxes <= 1)

(* --- pinned compiler output --- *)

(* Every function the engine compiles while running [source] the way the
   harness does (top level, then [iterations] bench() calls), in
   compilation order. *)
let compiled_funcs ~mechanism ~iterations source =
  let config = { E.default_config with E.mechanism } in
  let t = E.of_source ~config source in
  E.set_measuring t true;
  ignore (E.run_main t);
  for _ = 1 to iterations do
    ignore (E.call_by_name t "bench" [||])
  done;
  Hashtbl.fold (fun _ f acc -> f :: acc) t.E.opt_table []
  |> List.sort (fun (a : Lir.func) b -> compare a.Lir.opt_id b.Lir.opt_id)

(* Everything the optimizer decides for one compiled function: the
   printed code, then what the printer leaves out (flags, runtime-call
   payloads, float conditions), the deopt table, the register
   representations and the speculation dependencies. *)
let render_func buf (f : Lir.func) =
  Buffer.add_string buf (Fmt.str "%a" Lir.pp_func f);
  Buffer.add_string buf
    (Digest.to_hex (Digest.string (Marshal.to_string f.Lir.code [ Marshal.No_sharing ])));
  Array.iter
    (fun (d : Lir.deopt_info) ->
      Printf.bprintf buf "\ndeopt %d %s %s" d.Lir.bc_pc
        (match d.Lir.result_into with Some r -> string_of_int r | None -> "-")
        (Tce_attr.Reason.to_string d.Lir.reason))
    f.Lir.deopts;
  Buffer.add_string buf "\nreprs ";
  Array.iter
    (fun r -> Buffer.add_char buf (match r with Lir.R_tagged -> 't' | R_double -> 'd'))
    f.Lir.reprs;
  List.iter (fun (c, l, p) -> Printf.bprintf buf "\ndep %d:%d:%d" c l p) f.Lir.spec_deps;
  Printf.bprintf buf "\nregs %d fregs %d\n" f.Lir.n_regs f.Lir.n_fregs

let lir_digest ~mechanism ~iterations source =
  let buf = Buffer.create 65536 in
  List.iter (render_func buf) (compiled_funcs ~mechanism ~iterations source);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Control-flow shapes the roster does not pin down on its own: code after
   a return (never reached, so it is compiled against the all-null entry
   state), a conditional jump to the implicit return at the end of the
   function, a loop whose header is pc 0, and a modulus whose constant
   divisor differs between the loop entry and the backedge (so the join
   must drop it). *)
let shapes_src =
  {|
function dead(x) {
  var y = x + 1;
  return y;
  var z = 2.5;
  y = y * z;
  return y + z;
}
function tail(x) {
  if (x > 5) { return x - 5; }
}
function spin(n) {
  while (n > 0) { n = n - 3; }
  return n;
}
function modk(n) {
  var m = 8;
  var s = 0;
  for (var i = 0; i < n; i++) { s = s + i % m; m = 5; }
  return s;
}
function bench() {
  var s = 0;
  for (var i = 0; i < 60; i++) {
    var t = tail(i & 7);
    if (t != null) { s = s + t; }
    s = (s + dead(i) + spin(i & 15) + modk(i & 15)) & 65535;
  }
  return s;
}
|}

let test_shapes_are_exercised () =
  let p = compile shapes_src in
  let code name = (Option.get (Bytecode.find_func p name)).Bytecode.code in
  let targets c =
    Array.to_list c
    |> List.filter_map (function
         | Bytecode.Jump l | JumpIfFalse (_, l) | JumpIfTrue (_, l) -> Some l
         | _ -> None)
  in
  let dead = code "dead" in
  Alcotest.(check bool) "dead: a return precedes more code, nothing jumps" true
    (Array.exists
       (function Bytecode.Return _ -> true | _ -> false)
       (Array.sub dead 0 (Array.length dead - 1))
    && targets dead = []);
  let tail = code "tail" in
  Alcotest.(check bool) "tail: a jump lands on the implicit return" true
    (List.mem (Array.length tail - 2) (targets tail));
  Alcotest.(check bool) "spin: the loop header is pc 0" true
    (List.mem 0 (targets (code "spin")))

let pinned_roster =
  [ "deopt-storm"; "math-spectral-norm"; "ai-astar"; "date-format-tofte";
    "raytrace"; "richards"; "crypto"; "access-fannkuch"; "earley-boyer";
    "audio-fft" ]

(* MD5 of [render_func] over every function compiled per program and
   mechanism setting, recorded before the forward dataflow moved from
   per-pc to per-basic-block states: the rewrite changed no emitted
   instruction, deopt, representation or dependency. A deliberate change
   to code generation re-records them from the failure's "Received"
   list. *)
let pinned_digests =
  [
    ("shapes/off", "d0814d9c5a34dce79015cf285d7f6f22");
    ("shapes/on", "d0814d9c5a34dce79015cf285d7f6f22");
    ("deopt-storm/off", "7661add1641720bb888973d8800b0953");
    ("deopt-storm/on", "15af9dedd0dc3fc41e408f74e56aa48a");
    ("math-spectral-norm/off", "06d1e37239574916e0feda733f01f859");
    ("math-spectral-norm/on", "0f25233c609f2ab238f406ae23ada46e");
    ("ai-astar/off", "ddb2ea0c798fcaef72cd2bcc0148d1bf");
    ("ai-astar/on", "22537da062ba38adc1dd090fa4802c98");
    ("date-format-tofte/off", "7e62b331bb8f821fd9aba43ed28e79a7");
    ("date-format-tofte/on", "bb19d591ee4666ab8aac8d180fdd6e72");
    ("raytrace/off", "6a5653f90d7609d758665925ed8cb521");
    ("raytrace/on", "bb2940024eb224df8bb5ed499a3e9994");
    ("richards/off", "a9401787fed85b93dce3e3ce77d6a638");
    ("richards/on", "87206f67ead43ca4ba56991d9aca9f89");
    ("crypto/off", "ffe021bdf47a757dc0e5823228cef7ae");
    ("crypto/on", "6791fe81d27d2e8f31b21d0218652c73");
    ("access-fannkuch/off", "3bf4778de7a713941c4971b10d1a1bd7");
    ("access-fannkuch/on", "f7ff2a1fc3519b00d9abe67567f3c706");
    ("earley-boyer/off", "fd5c6d6d2b506ce5c711a026b7d12f5f");
    ("earley-boyer/on", "41ad9e8c7976bac9d923f8ea61d1bdbe");
    ("audio-fft/off", "cf850769e85af3cc7198193621c9ea16");
    ("audio-fft/on", "efbeb80ea74daf48d0e368ea654afc82");
  ]

let test_pinned_lir () =
  let programs =
    ("shapes", shapes_src, 10)
    :: List.map
         (fun name ->
           match Tce_workloads.Workloads.by_name name with
           | Some w ->
             (name, w.Tce_workloads.Workload.source, w.Tce_workloads.Workload.iterations)
           | None -> Alcotest.failf "%s not in the workload registry" name)
         pinned_roster
  in
  let got =
    List.concat_map
      (fun (name, src, iterations) ->
        List.map
          (fun mechanism ->
            ( Printf.sprintf "%s/%s" name (if mechanism then "on" else "off"),
              lir_digest ~mechanism ~iterations src ))
          [ false; true ])
      programs
  in
  Alcotest.(check (list (pair string string))) "LIR digests" pinned_digests got

(* --- allocation of the optimizing compiler --- *)

(* Words allocated (minor heap plus direct major-heap allocation) by one
   [Opt.compile] of the largest inlined shadow in the roster, that of
   math-spectral-norm (256 bytecodes, 208 registers), per LIR instruction
   emitted. The compile is replayed on the finished engine, so the Class
   List state and the result are fixed. *)
let compile_words_per_lir () =
  let w = Option.get (Tce_workloads.Workloads.by_name "math-spectral-norm") in
  let t = E.of_source ~config:E.default_config w.Tce_workloads.Workload.source in
  ignore (E.run_main t);
  for _ = 1 to w.Tce_workloads.Workload.iterations do
    ignore (E.call_by_name t "bench" [||])
  done;
  let opt_id, fn =
    Hashtbl.fold
      (fun id (f : Bytecode.func) (bid, (best : Bytecode.func)) ->
        if Array.length f.Bytecode.code > Array.length best.Bytecode.code then (id, f)
        else (bid, best))
      t.E.shadow_table (-1, t.E.prog.Bytecode.funcs.(t.E.prog.Bytecode.main))
  in
  let env =
    {
      Opt.prog = t.E.prog; heap = t.E.heap; cl = t.E.cl;
      mechanism = E.default_config.E.mechanism;
      hoisting = E.default_config.E.hoisting;
      checked_load = E.default_config.E.checked_load; fn; opt_id; code_addr = 0;
      globals_base = t.E.globals_base; attr = Tce_attr.Ledger.null;
    }
  in
  let words () =
    let minor = Gc.minor_words () in
    let _, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let code = Opt.compile env in
  let words = words () -. w0 in
  (Array.length fn.Bytecode.code, words /. float_of_int (Array.length code.Lir.code))

(* Measured (OCaml 5.1, release profile): 80.9 words per LIR instruction.
   With a dense state per pc (three arrays of [n_regs] each, copied on
   every worklist visit) it was 2662.8. The bound is twice the measured
   value. *)
let compile_words_measured = 80.9

let test_compile_alloc () =
  let n_bc, got = compile_words_per_lir () in
  if got > 2. *. compile_words_measured then
    Alcotest.failf
      "Opt.compile of a %d-bytecode shadow: %.1f words per LIR instruction, \
       bound %.1f (2x the measured %.1f)"
      n_bc got (2. *. compile_words_measured) compile_words_measured

let () =
  Alcotest.run "jit"
    [
      ( "bytecode",
        [
          Alcotest.test_case "shape" `Quick test_bc_shape;
          Alcotest.test_case "globals" `Quick test_bc_globals;
          Alcotest.test_case "ctor reserve" `Quick test_bc_ctor_reserve;
          Alcotest.test_case "loops/jumps" `Quick test_bc_loops_and_jumps;
          Alcotest.test_case "errors" `Quick test_bc_errors;
          Alcotest.test_case "logical ops" `Quick test_bc_logical_ops_control_flow;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "IC progression" `Quick test_feedback_progression;
          Alcotest.test_case "binop join" `Quick test_feedback_binop_join;
        ] );
      ( "inliner",
        [
          Alcotest.test_case "simple call" `Quick test_inline_simple_call;
          Alcotest.test_case "skips recursion" `Quick test_inline_skips_recursive;
          Alcotest.test_case "constructors" `Quick test_inline_ctor;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "check elimination" `Quick
            test_opt_removes_checks_with_mechanism;
          Alcotest.test_case "special stores" `Quick test_opt_special_stores_emitted;
          Alcotest.test_case "provably-safe stores" `Quick
            test_opt_provably_safe_stores_are_plain;
          Alcotest.test_case "deopt metadata" `Quick test_opt_deopt_metadata;
          Alcotest.test_case "strength reduction" `Quick test_opt_strength_reduction;
          Alcotest.test_case "unboxed float locals" `Quick
            test_opt_unboxed_float_locals;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "control-flow shapes are exercised" `Quick
            test_shapes_are_exercised;
          Alcotest.test_case "LIR of roster and shape programs" `Slow test_pinned_lir;
          Alcotest.test_case "Opt.compile words per LIR instruction" `Quick
            test_compile_alloc;
        ] );
    ]
