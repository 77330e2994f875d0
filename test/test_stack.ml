(* Stack safety of the templated executor. Its step closures are
   direct-threaded: each one ends in a tail call to its successor, and a
   loop's back edge re-enters the loop block's entry closure. A step whose
   continuation call is not a tail call grows the host stack by one frame
   per simulated instruction, which a long-running loop then overflows.

   test/dune runs this executable under OCAMLRUNPARAM=l=64k (a 64k-word
   stack limit); the first case checks that the limit is in effect, so the
   second cannot pass vacuously. *)

module E = Tce_engine.Engine
module Counters = Tce_machine.Counters

let rec depth n = if n = 0 then 0 else 1 + depth (n - 1)

let test_limit_in_effect () =
  match depth 100_000 with
  | _ -> Alcotest.fail "a 100k-deep recursion fit: the stack limit is not set"
  | exception Stack_overflow -> ()

let program =
  match Tce_workloads.Workloads.by_name "bitops-3bit-bits-in-byte" with
  | Some w -> w
  | None -> Alcotest.fail "bitops-3bit-bits-in-byte missing from the registry"

let test_long_run () =
  let w = program in
  let e = E.of_source w.Tce_workloads.Workload.source in
  E.set_measuring e true;
  ignore (E.run_main e);
  (* warm up until bench() itself runs optimized: one call is then one
     outermost run *)
  let bench = E.call_by_name e "bench" in
  for _ = 1 to w.Tce_workloads.Workload.iterations - 1 do
    ignore (bench [||])
  done;
  let fn =
    List.find
      (fun (f : Tce_jit.Bytecode.func) -> f.Tce_jit.Bytecode.name = "bench")
      (Array.to_list e.E.prog.Tce_jit.Bytecode.funcs)
  in
  Alcotest.(check bool) "bench() is optimized" true
    (Option.is_some fn.Tce_jit.Bytecode.opt);
  let before = Counters.opt_instrs e.E.counters in
  ignore (bench [||]);
  let n = Counters.opt_instrs e.E.counters - before in
  if n < 10_000_000 then
    Alcotest.failf "one bench() call ran %d optimized instructions, want >= 10^7" n

let () =
  Alcotest.run "stack"
    [
      ( "threaded executor",
        [
          Alcotest.test_case "the stack limit is in effect" `Quick
            test_limit_in_effect;
          Alcotest.test_case "10^7 instructions in one run" `Quick test_long_run;
        ] );
    ]
