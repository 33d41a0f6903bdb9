(* Seeded input generation for the benchmark workloads.

   Every generated program comes with a plain-OCaml reference that
   computes its expected output independently of the Zr pipeline.  The
   seed changes data, constants, identifiers and item order; it never
   changes trip counts, region counts or the number of items, so two
   seeds cost the same work. *)

module V = Interp.Value

(* A seeded stream: [Random.State] is deterministic for a fixed seed
   within one build, which is all the benchmark needs. *)
let rng ~seed ~salt = Random.State.make [| seed; salt; 0x5eed |]

let tag st =
  String.init 3 (fun _ -> Char.chr (Char.code 'a' + Random.State.int st 26))

(* A dyadic constant in (0, 1): exactly representable, printed exactly. *)
let dyadic st = float_of_int (1 + Random.State.int st 15) /. 16.

let lit f = Printf.sprintf "%.6f" f

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Work declared by a generator: loop trips executed and parallel
   regions forked per item.  The seed test compares these across
   seeds. *)
type work = { trips : int; regions : int }

type answer =
  | Floats of float array   (* exact per-element result *)
  | Float of float          (* exact scalar result *)
  | Ints of int array
  | Int of int

let answer_digest = function
  | Floats a -> Digest.to_hex (Digest.string (Marshal.to_string a []))
  | Float f -> Printf.sprintf "%h" f
  | Ints a -> Digest.to_hex (Digest.string (Marshal.to_string a []))
  | Int n -> string_of_int n

(* ------------------------- loop kernels ---------------------------- *)

type size = Fork_bound | Mid | Body_bound
type sched = Static | Dynamic | Guided
type kind = Stencil | Spmv | Dot | Histogram

let size_name = function
  | Fork_bound -> "fork" | Mid -> "mid" | Body_bound -> "body"

let sched_name = function
  | Static -> "static" | Dynamic -> "dynamic" | Guided -> "guided"

let kind_name = function
  | Stencil -> "stencil" | Spmv -> "spmv" | Dot -> "dot"
  | Histogram -> "histogram"

(* (elements, regions) per size class: fork-bound items are dominated
   by fork/join and dispatch, body-bound ones by the loop body. *)
let dims = function
  | Fork_bound -> (64, 48)
  | Mid -> (2048, 6)
  | Body_bound -> (32768, 1)

let sched_clause = function
  | Static -> "schedule(static)"
  | Dynamic -> "schedule(dynamic, 16)"
  | Guided -> "schedule(guided, 16)"

let nnz_per_row = 5
let nbins = 64

(* A loop-kernel program: one function per (kind, schedule); the size
   class only changes the arguments. *)
type kernel_src = {
  fname : string;
  src : sched -> string;
  c : float array;  (* stencil weights *)
}

let kernel_source st kind =
  let t = tag st in
  let fname = Printf.sprintf "%s_%s" (kind_name kind) t in
  let a = "a_" ^ t and b = "b_" ^ t in
  let c = [| dyadic st; dyadic st; dyadic st |] in
  let src sched =
    let sc = sched_clause sched in
    match kind with
    | Stencil ->
        Printf.sprintf
          {|fn %s(reps: i64, n: i64, %s: []f64, %s: []f64) f64 {
    var r: i64 = 0;
    while (r < reps) : (r += 1) {
        var i: i64 = 1;
        //$omp parallel for %s shared(%s, %s)
        while (i < n - 1) : (i += 1) {
            %s[i] = %s * %s[i - 1] + %s * %s[i] + %s * %s[i + 1];
        }
    }
    return %s[1];
}
|}
          fname a b sc a b b (lit c.(0)) a (lit c.(1)) a (lit c.(2)) a b
    | Spmv ->
        Printf.sprintf
          {|fn %s(reps: i64, nrows: i64, %s: []f64, colidx: []i64, rowstr: []i64, x: []f64, %s: []f64) f64 {
    var r: i64 = 0;
    while (r < reps) : (r += 1) {
        var row: i64 = 0;
        //$omp parallel for %s shared(%s, colidx, rowstr, x, %s)
        while (row < nrows) : (row += 1) {
            var sum: f64 = 0.0;
            var k: i64 = rowstr[row];
            while (k < rowstr[row + 1]) : (k += 1) {
                sum += %s[k] * x[colidx[k]];
            }
            %s[row] = sum;
        }
    }
    return %s[0];
}
|}
          fname a b sc a b a b b
    | Dot ->
        Printf.sprintf
          {|fn %s(reps: i64, n: i64, %s: []f64, %s: []f64) f64 {
    var total: f64 = 0.0;
    var r: i64 = 0;
    while (r < reps) : (r += 1) {
        var s: f64 = 0.0;
        var i: i64 = 0;
        //$omp parallel for %s reduction(+: s) shared(%s, %s)
        while (i < n) : (i += 1) {
            s += %s[i] * %s[i];
        }
        total += s;
    }
    return total;
}
|}
          fname a b sc a b a b
    | Histogram ->
        Printf.sprintf
          {|fn %s(reps: i64, n: i64, nb: i64, %s: []i64, %s: []i64) i64 {
    var r: i64 = 0;
    while (r < reps) : (r += 1) {
        var i: i64 = 0;
        //$omp parallel for %s shared(%s, %s) firstprivate(nb)
        while (i < n) : (i += 1) {
            var k: i64 = %s[i] %% nb;
            //$omp atomic
            %s[k] = %s[k] + 1;
        }
    }
    return %s[0];
}
|}
          fname a b sc a b a b b b
  in
  { fname; src; c }

(* Inputs and reference for one (kind, size) instance.  [args ()]
   builds fresh argument values (outputs zeroed); [result args ret]
   extracts the item's output for comparison with [expect]. *)
type kernel_case = {
  args : unit -> V.t list;
  result : V.t list -> V.t -> answer;
  expect : answer;
  work : work;
  data_digest : string;
}

let int_floats st n = Array.init n (fun _ -> float_of_int (Random.State.int st 8))

let kernel_case st kind size (k : kernel_src) =
  let n, reps = dims size in
  let work = { trips = n * reps; regions = reps } in
  let digest x = Digest.to_hex (Digest.string (Marshal.to_string x [])) in
  match kind with
  | Stencil ->
      let a = Array.init n (fun _ -> dyadic st) in
      let expect = Array.make n 0. in
      for i = 1 to n - 2 do
        expect.(i) <-
          (k.c.(0) *. a.(i - 1)) +. (k.c.(1) *. a.(i)) +. (k.c.(2) *. a.(i + 1))
      done;
      { args = (fun () -> [ V.VInt reps; V.VInt n; V.VFloatArr a;
                            V.VFloatArr (Array.make n 0.) ]);
        result = (fun args _ ->
          match args with
          | [ _; _; _; V.VFloatArr b ] -> Floats b
          | _ -> Int (-1));
        expect = Floats expect; work; data_digest = digest a }
  | Spmv ->
      let rowstr = Array.init (n + 1) (fun i -> i * nnz_per_row) in
      let colidx =
        Array.init (n * nnz_per_row) (fun _ -> Random.State.int st n)
      in
      let a = Array.init (n * nnz_per_row) (fun _ -> dyadic st) in
      let x = Array.init n (fun _ -> dyadic st) in
      let expect =
        Array.init n (fun row ->
            let sum = ref 0. in
            for k = rowstr.(row) to rowstr.(row + 1) - 1 do
              sum := !sum +. (a.(k) *. x.(colidx.(k)))
            done;
            !sum)
      in
      { args = (fun () ->
          [ V.VInt reps; V.VInt n; V.VFloatArr a; V.VIntArr colidx;
            V.VIntArr rowstr; V.VFloatArr x; V.VFloatArr (Array.make n 0.) ]);
        result = (fun args _ ->
          match args with
          | [ _; _; _; _; _; _; V.VFloatArr y ] -> Floats y
          | _ -> Int (-1));
        expect = Floats expect;
        work = { work with trips = work.trips * nnz_per_row };
        data_digest = digest (colidx, a, x) }
  | Dot ->
      (* integer-valued operands keep every partial sum exact, so the
         reduction's combination order cannot change the result *)
      let x = int_floats st n and y = int_floats st n in
      let s = ref 0. in
      for i = 0 to n - 1 do s := !s +. (x.(i) *. y.(i)) done;
      { args = (fun () -> [ V.VInt reps; V.VInt n; V.VFloatArr x; V.VFloatArr y ]);
        result = (fun _ ret ->
          match ret with V.VFloat f -> Float f | _ -> Int (-1));
        expect = Float (float_of_int reps *. !s); work;
        data_digest = digest (x, y) }
  | Histogram ->
      let key = Array.init n (fun _ -> Random.State.int st 100_000) in
      let h = Array.make nbins 0 in
      Array.iter (fun k -> h.(k mod nbins) <- h.(k mod nbins) + reps) key;
      { args = (fun () ->
          [ V.VInt reps; V.VInt n; V.VInt nbins; V.VIntArr key;
            V.VIntArr (Array.make nbins 0) ]);
        result = (fun args _ ->
          match args with
          | [ _; _; _; _; V.VIntArr h ] -> Ints h
          | _ -> Int (-1));
        expect = Ints h; work; data_digest = digest key }

(* ---------------------------- tasking ------------------------------ *)

type task_prog = {
  tname : string;
  tsrc : string;
  entry : string;
  targs : unit -> V.t list;
  tresult : V.t list -> V.t -> answer;
  texpect : answer;
  twork : work;
  tdigest : string;
}

(* Recursive fib over tasks; the base case adds a seeded constant so
   the answer depends on the seed but the task tree does not. *)
let task_fib st n =
  let t = tag st in
  let c = Random.State.int st 5 in
  let f = "fib_" ^ t in
  let src =
    Printf.sprintf
      {|fn %s(n: i64) i64 {
    if (n < 2) { return n + %d; }
    var a: i64 = 0;
    var b: i64 = 0;
    //$omp task shared(a) firstprivate(n)
    { a = %s(n - 1); }
    //$omp task shared(b) firstprivate(n)
    { b = %s(n - 2); }
    //$omp taskwait
    return a + b;
}

fn run_%s(n: i64) i64 {
    var r: i64 = 0;
    //$omp parallel
    {
        //$omp single
        { r = %s(n); }
    }
    return r;
}
|}
      f c f f t f
  in
  let rec fib n = if n < 2 then n + c else fib (n - 1) + fib (n - 2) in
  let rec calls n = if n < 2 then 1 else 1 + calls (n - 1) + calls (n - 2) in
  { tname = Printf.sprintf "task_fib_%d" n; tsrc = src; entry = "run_" ^ t;
    targs = (fun () -> [ V.VInt n ]);
    tresult = (fun _ r -> match r with V.VInt v -> Int v | _ -> Int (-1));
    texpect = Int (fib n);
    twork = { trips = calls n; regions = 1 };
    tdigest = Digest.to_hex (Digest.string src) }

(* Divide-and-conquer range sum over a seeded window of fixed length. *)
let task_tree st len leaf =
  let t = tag st in
  let lo = Random.State.int st 1_000_000 in
  let f = "tree_" ^ t in
  let src =
    Printf.sprintf
      {|fn %s(lo: i64, hi: i64) i64 {
    if (hi - lo < %d) {
        var s: i64 = 0;
        var i: i64 = lo;
        while (i < hi) : (i += 1) { s += i; }
        return s;
    }
    var a: i64 = 0;
    var b: i64 = 0;
    var mid: i64 = (lo + hi) / 2;
    //$omp task shared(a) firstprivate(lo, mid)
    { a = %s(lo, mid); }
    //$omp task shared(b) firstprivate(mid, hi)
    { b = %s(mid, hi); }
    //$omp taskwait
    return a + b;
}

fn run_%s(lo: i64, hi: i64) i64 {
    var r: i64 = 0;
    //$omp parallel
    {
        //$omp single
        { r = %s(lo, hi); }
    }
    return r;
}
|}
      f leaf f f t f
  in
  let hi = lo + len in
  let expect = ((hi - 1) * hi / 2) - ((lo - 1) * lo / 2) in
  { tname = Printf.sprintf "task_tree_%d" len; tsrc = src; entry = "run_" ^ t;
    targs = (fun () -> [ V.VInt lo; V.VInt hi ]);
    tresult = (fun _ r -> match r with V.VInt v -> Int v | _ -> Int (-1));
    texpect = Int expect;
    twork = { trips = len; regions = 1 };
    tdigest = Digest.to_hex (Digest.string (src ^ string_of_int lo)) }

(* A stencil sweep as a taskloop rooted in a single. *)
let task_loop st n grain =
  let t = tag st in
  let c = [| dyadic st; dyadic st; dyadic st |] in
  let src =
    Printf.sprintf
      {|fn tl_%s(n: i64, a: []f64, b: []f64) f64 {
    //$omp parallel shared(a, b) firstprivate(n)
    {
        //$omp single
        {
            var i: i64 = 1;
            //$omp taskloop grainsize(%d)
            while (i < n - 1) : (i += 1) {
                b[i] = %s * a[i - 1] + %s * a[i] + %s * a[i + 1];
            }
        }
    }
    return b[1];
}
|}
      t grain (lit c.(0)) (lit c.(1)) (lit c.(2))
  in
  let a = Array.init n (fun _ -> dyadic st) in
  let expect = Array.make n 0. in
  for i = 1 to n - 2 do
    expect.(i) <- (c.(0) *. a.(i - 1)) +. (c.(1) *. a.(i)) +. (c.(2) *. a.(i + 1))
  done;
  { tname = Printf.sprintf "taskloop_%d_g%d" n grain; tsrc = src;
    entry = "tl_" ^ t;
    targs = (fun () -> [ V.VInt n; V.VFloatArr a; V.VFloatArr (Array.make n 0.) ]);
    tresult = (fun args _ ->
      match args with [ _; _; V.VFloatArr b ] -> Floats b | _ -> Int (-1));
    texpect = Floats expect;
    twork = { trips = n - 2; regions = 1 };
    tdigest = Digest.to_hex (Digest.string (src ^ Marshal.to_string a [])) }

(* Four independent sections, each a serial reduction over its own
   quarter of an integer-valued array. *)
let task_sections st n =
  let t = tag st in
  let x = int_floats st n in
  let q = n / 4 in
  let section k =
    Printf.sprintf
      {|            //$omp section
            {
                var s%d: f64 = 0.0;
                var i%d: i64 = %d;
                while (i%d < %d) : (i%d += 1) { s%d += x[i%d] * x[i%d]; }
                out[%d] = s%d;
            }|}
      k k (k * q) k ((k + 1) * q) k k k k k k
  in
  let src =
    Printf.sprintf
      {|fn sec_%s(x: []f64, out: []f64) f64 {
    //$omp parallel shared(x, out)
    {
        //$omp sections
        {
%s
        }
    }
    return out[0];
}
|}
      t (String.concat "\n" (List.init 4 section))
  in
  let expect =
    Array.init 4 (fun k ->
        let s = ref 0. in
        for i = k * q to ((k + 1) * q) - 1 do s := !s +. (x.(i) *. x.(i)) done;
        !s)
  in
  { tname = Printf.sprintf "sections_%d" n; tsrc = src; entry = "sec_" ^ t;
    targs = (fun () -> [ V.VFloatArr x; V.VFloatArr (Array.make 4 0.) ]);
    tresult = (fun args _ ->
      match args with [ _; V.VFloatArr o ] -> Floats o | _ -> Int (-1));
    texpect = Floats expect;
    twork = { trips = n; regions = 1 };
    tdigest = Digest.to_hex (Digest.string (src ^ Marshal.to_string x [])) }

(* --------------------------- checker -------------------------------- *)

(* A jacobi-shaped program with [sweeps] parallel regions: race-free by
   construction (reduction + implicit barriers), so the known answer
   is an empty finding set. *)
let jacobi st sweeps =
  let t = tag st in
  let bval = dyadic st +. 1. in
  let u = "u_" ^ t and v = "v_" ^ t and b = "b_" ^ t and r = "resid_" ^ t in
  Printf.sprintf
    {|fn main() f64 {
    var n: i64 = 16;
    var %s = alloc_f64(n);
    var %s = alloc_f64(n);
    var %s = alloc_f64(n);
    var k: i64 = 0;
    while (k < n) : (k += 1) { %s[k] = %s; }
    var %s: f64 = 0.0;
    var sweep: i64 = 0;
    while (sweep < %d) : (sweep += 1) {
        %s = 0.0;
        //$omp parallel shared(%s, %s, %s, %s) firstprivate(n)
        {
            var i: i64 = 1;
            //$omp for reduction(max: %s)
            while (i < n - 1) : (i += 1) {
                %s[i] = 0.5 * (%s[i - 1] + %s[i + 1] + %s[i]);
                %s = __omp_max(%s, fabs(%s[i] - %s[i]));
            }
            var j: i64 = 1;
            //$omp for
            while (j < n - 1) : (j += 1) { %s[j] = %s[j]; }
        }
    }
    return %s;
}
|}
    u v b b (lit bval) r sweeps r u v b r r v u u b r r v u u v r

(* --------------------------- analyser ------------------------------- *)

(* Mixed programs for the static analyser: each combines worksharing,
   atomics, tasks and sections in one file.  [racy] plants known races
   whose ids the generator records: a missing reduction (race|<acc>), an
   unprotected shared counter (race|<cnt>), and an un-awaited task
   result (race|<res>). *)
let mixed st ~racy =
  let t = tag st in
  let acc = "acc_" ^ t and cnt = "cnt_" ^ t and res = "res_" ^ t in
  let w = 1 + Random.State.int st 9 in
  let red = if racy then "" else Printf.sprintf " reduction(+: %s)" acc in
  let atomic = if racy then "" else "\n            //$omp atomic" in
  let tw = if racy then "" else "\n            //$omp taskwait" in
  let src =
    Printf.sprintf
      {|fn sum_%s(x: []f64) f64 {
    var n: i64 = 64;
    var %s: f64 = 0.0;
    var i: i64 = 0;
    //$omp parallel for shared(x)%s
    while (i < n) : (i += 1) {
        %s += x[i] * %d.0;
    }
    return %s;
}

fn count_%s() i64 {
    var n: i64 = 64;
    var %s: i64 = 0;
    //$omp parallel shared(%s)
    {
        var i: i64 = 0;
        //$omp for
        while (i < n) : (i += 1) {%s
            %s = %s + 1;
        }
    }
    return %s;
}

fn task_%s() i64 {
    var n: i64 = 64;
    var %s: i64 = 0;
    var out: i64 = 0;
    //$omp parallel num_threads(2) shared(%s, out) firstprivate(n)
    {
        //$omp single
        {
            //$omp task shared(%s) firstprivate(n)
            { %s = n * %d; }%s
            out = %s;
        }
    }
    return out;
}

fn main() i64 {
    var n: i64 = 64;
    var x = alloc_f64(n);
    var i: i64 = 0;
    while (i < n) : (i += 1) { x[i] = 1.0; }
    var s: f64 = sum_%s(x);
    return count_%s() + task_%s();
}
|}
      t acc red acc w acc t cnt cnt atomic cnt cnt cnt t res res res res w tw
      res t t t
  in
  let ids = if racy then List.sort compare [ "race|" ^ acc; "race|" ^ cnt; "race|" ^ res ] else [] in
  (src, ids)
