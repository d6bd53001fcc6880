(* The machine's speed over a run, measured with a fixed kernel.

   The benchmark runs on shared hosts whose speed changes in steps that
   last minutes (other tenants, clock frequency).  Between its timed
   operations a run samples the wall of [kernel], code of the
   benchmark's own that no change to the libraries can alter, and its
   end-to-end times are scaled by [ref_s / median kernel wall]: the time
   they would have taken on a machine where the kernel takes [ref_s].  A
   change to the program moves a scaled time as it moves the wall; a
   change in the machine's speed moves the kernel too and cancels out, as
   far as the kernel and the program feel it alike.  The median over the
   whole run keeps a burst that hits one sample from moving the scale.

   The kernel is a small interpreter, like the VM it stands in for: a
   dispatch on an opcode array, a pseudo-random walk of loads and stores
   over 16 MiB, and data-dependent branches.  Its memory lies outside the
   OCaml heap and it allocates nothing, so neither the collector's pacing
   nor its settings reach it or are changed by it. *)

let words = 1 lsl 21

let mem =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  Bigarray.Array1.fill a 0;
  a

let code = [| 0; 1; 3; 0; 2; 4; 1; 3; 0; 4; 2; 1; 3; 0; 1; 4 |]

let kernel steps =
  let mask = words - 1 and ncode = Array.length code in
  let pc = ref 0 and x = ref 0x2545f491 and acc = ref 7 in
  for _ = 1 to steps do
    (match Array.unsafe_get code !pc with
    | 0 -> x := ((!x * 1103515245) + 12345) land 0x3fffffff
    | 1 -> acc := !acc + Bigarray.Array1.unsafe_get mem (!x land mask)
    | 2 -> Bigarray.Array1.unsafe_set mem ((!x lsr 5) land mask) !acc
    | 3 -> if !acc land 1 = 0 then acc := !acc lsr 1 else acc := (3 * !acc) + 1
    | _ -> acc := !acc lxor !x);
    pc := (!pc + 1 + (!acc land 1)) mod ncode
  done;
  !acc

(* Steps per kernel run: about 10 ms on the 2.0 GHz Xeon vCPU the
   reference below was taken on. *)
let steps = 600_000

(* The kernel's median wall on that machine, idle. *)
let ref_s = 0.0100

let reps = 5

(* The median wall of [reps] kernel runs. *)
let measure () =
  let walls =
    Array.init reps (fun _ ->
        let t = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (kernel steps) : int);
        Unix.gettimeofday () -. t)
  in
  Array.sort compare walls;
  walls.(reps / 2)

let samples = ref []

(* Take one sample of the machine's speed. *)
let sample () = samples := measure () :: !samples

(* The median kernel wall over the run's samples (one is taken if there
   are none yet). *)
let kernel_s () =
  if !samples = [] then sample ();
  let a = Array.of_list !samples in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [wall] seconds measured in this run, in seconds of the reference
   machine. *)
let scale wall = wall *. ref_s /. kernel_s ()
