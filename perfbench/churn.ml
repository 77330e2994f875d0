(* Seeded MiniJS programs that attack speculation (the [churn] workload).

   Every program has the same skeleton, so the work per program does not
   depend on the seed; the seed only picks constants, which slots the
   helpers read and write, and the order, slot and object of the breaking
   stores:

   - three constructors; shapes alternate between one cache line (5
     slots) and two (12 slots);
   - one pool of objects per constructor, so every load site stays
     monomorphic during warm-up;
   - small helpers the optimizer inlines, and a drive() function whose
     number of inlined call sites (4 + the program's index in the pass)
     varies across the pass;
   - from the 9th [bench()] call on, each drive() call writes a double
     into one more speculated SMI slot from inside its loop, while
     drive()'s optimized frame is live. That raises a Class Cache
     exception, deoptimizes the FunctionList and forces a recompile
     (paper §4.2.2). Calls 9 and 10 break all nine read slots between
     them. *)

module P = Tce_support.Prng

let classes = 3
let pool_size = 32

(* Slots per constructor: line 0 holds 5 named slots, line 1 seven more
   (Tce_vm.Layout), so 5 slots fit one line and 12 span two. *)
let slots c = if c mod 2 = 0 then 12 else 5

let cname c = Printf.sprintf "K%d" c

let program ~seed ~index =
  let rng = P.create ((seed * 7919) + index) in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "// churn program %d (seed %d)\n" index seed;
  for c = 0 to classes - 1 do
    add "function %s(s) {\n" (cname c);
    for k = 0 to slots c - 1 do
      add "  this.f%d = s + %d;\n" k (1 + P.int rng 50)
    done;
    add "}\n"
  done;
  for c = 0 to classes - 1 do
    add "var pool%d = array_new(0);\n" c
  done;
  add "function setup() {\n  for (var i = 0; i < %d; i++) {\n" pool_size;
  for c = 0 to classes - 1 do
    add "    push(pool%d, new %s(i * %d));\n" c (cname c) (2 + P.int rng 7)
  done;
  add "  }\n}\nsetup();\nvar calls = 0;\n";
  (* Each constructor's slots in a seeded order: the first three are read
     (and speculated on), the next two written with SMIs. Fixed counts keep
     the work per program independent of the seed. *)
  let order =
    Array.init classes (fun c ->
        let a = Array.init (slots c) (fun k -> k) in
        P.shuffle rng a;
        a)
  in
  (* one reader and one writer per constructor, each small enough to
     inline *)
  for c = 0 to classes - 1 do
    let o = order.(c) in
    add "function rd%d(o) {\n  var a = o.f%d + o.f%d;\n  var b = o.f%d - o.f%d;\n" c
      o.(0) o.(1) o.(2) o.(0);
    add "  if (a > b) { return (a * 3 + b) & 65535; }\n  return (b * 5 - a) & 65535;\n}\n";
    add "function wr%d(o, v) {\n  o.f%d = v;\n  o.f%d = v + %d;\n  return v + o.f%d;\n}\n"
      c o.(3) o.(4) (1 + P.int rng 9) o.(3)
  done;
  (* From call 9 on, each drive() call breaks one more read slot (a double
     into an SMI slot) at a seeded object, mid-loop. *)
  let breaks =
    Array.concat (List.init classes (fun c -> Array.init 3 (fun k -> (c, order.(c).(k)))))
  in
  P.shuffle rng breaks;
  let sites = 4 + index in
  add "var brk = 0;\nfunction drive() {\n  var acc = 0;\n";
  add "  if (calls >= 9) { brk = brk + 1; }\n";
  add "  for (var i = 0; i < %d; i++) {\n" pool_size;
  for c = 0 to classes - 1 do
    add "    var o%d = pool%d[i];\n" c c
  done;
  Array.iteri
    (fun j (c, k) ->
      add "    if (brk == %d && i == %d) { o%d.f%d = %d.5; }\n" (j + 1)
        (P.int rng pool_size) c k (P.int rng 100))
    breaks;
  for s = 0 to sites - 1 do
    let c = s mod classes in
    if s mod 2 = 0 then add "    acc = acc + rd%d(o%d);\n" c c
    else add "    acc = acc + wr%d(o%d, i + %d);\n" c c (P.int rng 9)
  done;
  add "  }\n  return acc;\n}\n";
  add "function bench() {\n  calls = calls + 1;\n  var acc = 0;\n";
  add "  for (var r = 0; r < 6; r++) { acc = acc + drive(); }\n";
  add "  return acc;\n}\n";
  Buffer.contents buf

let programs_per_pass = 10

(* A pass's roster: [programs_per_pass] programs at the paper's protocol
   (9 warm-up calls, 1 measured). *)
let roster ~seed =
  List.init programs_per_pass (fun index ->
      Tce_workloads.Workload.make ~iterations:10
        ~suite:Tce_workloads.Workload.Octane ~selected:false
        (Printf.sprintf "churn-%d" index)
        (program ~seed ~index))
