(* Pages of 2^15 bits stored as 1024 words of 32 bits (OCaml ints are 63-bit,
   so 64-bit words would overflow on [1 lsl 63]). *)

let page_bits = 15
let page_size = 1 lsl page_bits (* bits per page *)
let words_per_page = page_size / 32

type t = {
  pages : (int, int array) Hashtbl.t;
  mutable count : int;
  (* last page touched: adds are strongly page-local, so this skips the
     hash lookup almost always *)
  mutable last_idx : int;
  mutable last_page : int array;
}

let create () =
  { pages = Hashtbl.create 64; count = 0; last_idx = min_int; last_page = [||] }

let page_of t idx =
  if idx = t.last_idx then t.last_page
  else begin
    let p =
      match Hashtbl.find_opt t.pages idx with
      | Some p -> p
      | None ->
          let p = Array.make words_per_page 0 in
          Hashtbl.add t.pages idx p;
          p
    in
    t.last_idx <- idx;
    t.last_page <- p;
    p
  end

let add t x =
  if x < 0 then invalid_arg "Paged_bitset.add: negative";
  let page = page_of t (x lsr page_bits) in
  let off = x land (page_size - 1) in
  let w = off lsr 5 and b = off land 31 in
  let old = page.(w) in
  let nw = old lor (1 lsl b) in
  if nw <> old then begin
    page.(w) <- nw;
    t.count <- t.count + 1
  end

(* branch-free 32-bit popcount (words hold 32 bits, see header comment) *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  (* OCaml ints are wider than 32 bits, so the multiply doesn't truncate;
     keep only the byte that holds the folded sum. *)
  ((x * 0x01010101) lsr 24) land 0xff

(* Word-filled: one page lookup per page and one [lor] per 32-bit word
   instead of one of each per bit.  Ranges that fit inside one 32-bit word —
   nearly every memory access — take the masked single-write path up front
   (fitting in a word implies fitting in the page). *)
let add_range t x n =
  if n > 0 then begin
    if x < 0 then invalid_arg "Paged_bitset.add_range: negative";
    let b = x land 31 in
    if b + n <= 32 then begin
      let page = page_of t (x lsr page_bits) in
      let w = (x land (page_size - 1)) lsr 5 in
      let mask = ((1 lsl n) - 1) lsl b in
      let old = page.(w) in
      let nw = old lor mask in
      if nw <> old then begin
        t.count <- t.count + popcount32 (nw lxor old);
        page.(w) <- nw
      end
    end
    else begin
    let stop = x + n in
    let i = ref x in
    while !i < stop do
      let page_idx = !i lsr page_bits in
      let page = page_of t page_idx in
      let page_end = min stop ((page_idx + 1) lsl page_bits) in
      while !i < page_end do
        let off = !i land (page_size - 1) in
        let w = off lsr 5 and b = off land 31 in
        let span = min (32 - b) (page_end - !i) in
        let mask = ((1 lsl span) - 1) lsl b in
        let old = page.(w) in
        let nw = old lor mask in
        if nw <> old then begin
          t.count <- t.count + popcount32 (nw lxor old);
          page.(w) <- nw
        end;
        i := !i + span
      done
    done
    end
  end

let mem t x =
  if x < 0 then false
  else
    match Hashtbl.find_opt t.pages (x lsr page_bits) with
    | None -> false
    | Some page ->
        let off = x land (page_size - 1) in
        page.(off lsr 5) land (1 lsl (off land 31)) <> 0

let cardinal t = t.count

let iter f t =
  let idxs = Hashtbl.fold (fun k _ acc -> k :: acc) t.pages [] in
  let idxs = List.sort compare idxs in
  List.iter
    (fun idx ->
      let page = Hashtbl.find t.pages idx in
      let base = idx lsl page_bits in
      for w = 0 to words_per_page - 1 do
        let word = page.(w) in
        if word <> 0 then
          for b = 0 to 31 do
            if word land (1 lsl b) <> 0 then f (base + (w * 32) + b)
          done
      done)
    idxs

let page_count t = Hashtbl.length t.pages

let clear t =
  Hashtbl.reset t.pages;
  t.count <- 0;
  t.last_idx <- min_int;
  t.last_page <- [||]
