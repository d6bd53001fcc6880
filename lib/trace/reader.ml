module Leb = Tq_util.Leb128
module Crc32 = Tq_util.Crc32

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

type ckind = Plain | Repeat | Body

type chunk = {
  c_offset : int;
  c_first_icount : int;
  c_events : int;  (* raw (decoded) events — what the index records *)
  c_kind : ckind;
  c_stored : int;
      (* physically encoded events: = c_events for plain, the body length
         for a body-def, 0 for a repeat (its body is stored in the def) *)
}

type mode = Strict | Salvage

type salvage = {
  salvaged_chunks : int;
  dropped_chunks : int;
  dropped_bytes : int;
  reason : string;
}

type t = {
  raw : string;
  version : int;  (* 2, 3 or 4 *)
  verify : bool;
  chunks : chunk array;
  verified : bool array;
      (* verified.(i): chunk i's CRC has already matched once in this
         process, so later passes skip the digest.  Plain [bool array], not a
         bitmap: concurrent replay domains store [true] without a
         read-modify-write, so the worst a race can do is re-verify a chunk,
         never un-verify one. *)
  n_events : int;
  last_icount : int;
  fingerprint : int64;
  salvage : salvage option;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let leb_u s pos =
  try Leb.read_u s pos with Leb.Truncated p -> fail "truncated LEB128 at %d" p

let leb_s s pos =
  try Leb.read_s s pos with Leb.Truncated p -> fail "truncated LEB128 at %d" p

let le32 raw pos =
  if !pos + 4 > String.length raw then fail "truncated CRC at %d" !pos;
  let v =
    Char.code raw.[!pos]
    lor (Char.code raw.[!pos + 1] lsl 8)
    lor (Char.code raw.[!pos + 2] lsl 16)
    lor (Char.code raw.[!pos + 3] lsl 24)
  in
  pos := !pos + 4;
  v

let le64 raw pos =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code raw.[pos + i]))
  done;
  !v

(* Parse a v3/v4 chunk's fixed part at [offset]: kind byte, the three
   self-delimiting header fields, the stored CRC.  Returns the kind, the
   header fields, the CRC, the [meta] slice the CRC covers (header fields),
   the payload bounds.  [v4] admits the repeat- and body-def-chunk kind
   bytes.  Raises [Format_error] on anything malformed — the strict path's
   vocabulary. *)
let parse_chunk ~v4 raw offset =
  let len = String.length raw in
  if offset >= len then fail "chunk at %d: bad chunk magic" offset;
  let kind =
    if raw.[offset] = Writer.chunk_magic then Plain
    else if v4 && raw.[offset] = Writer.repeat_magic then Repeat
    else if v4 && raw.[offset] = Writer.body_magic then Body
    else fail "chunk at %d: bad chunk magic" offset
  in
  let pos = ref (offset + 1) in
  let meta_start = !pos in
  let n = leb_u raw pos in
  let first_icount = leb_u raw pos in
  let payload_len = leb_u raw pos in
  let meta_len = !pos - meta_start in
  if n < 0 || first_icount < 0 || payload_len < 0 then
    fail "chunk at %d: negative header field" offset;
  let crc = le32 raw pos in
  let payload_start = !pos in
  if payload_len > len - payload_start then fail "chunk at %d overruns file" offset;
  (kind, n, first_icount, payload_len, crc, meta_start, meta_len, payload_start)

(* v4 chunk CRCs cover the kind byte too (a flipped kind must not verify as
   a chunk of the other kind); v3 CRCs start at the header fields. *)
let check_crc ~v4 raw offset
    (_, _, _, payload_len, crc, meta_start, meta_len, payload_start) =
  let computed = if v4 then Crc32.digest ~pos:offset ~len:1 raw else 0 in
  let computed = Crc32.digest ~crc:computed ~pos:meta_start ~len:meta_len raw in
  let computed = Crc32.digest ~crc:computed ~pos:payload_start ~len:payload_len raw in
  if computed <> crc then
    fail "chunk at %d: CRC mismatch (stored %08x, computed %08x)" offset crc
      computed

(* Peek a repeat chunk's fixed fields at the head of its payload — body
   event count, iteration count, body-def reference (the def chunk's file
   offset) and the def's payload CRC — validating the counts against the
   header's raw count.  A reference must point strictly backwards: the
   writer always emits a def before any repeat that uses it. *)
let repeat_meta raw ~offset ~n ~payload_len ~payload_start =
  let pos = ref payload_start in
  let b = leb_u raw pos in
  let iters = leb_u raw pos in
  let bref = leb_u raw pos in
  let bcrc = leb_u raw pos in
  if b < 1 || iters < 1 || b * iters <> n then
    fail "chunk at %d: inconsistent repeat counts (%d x %d <> %d)" offset b
      iters n;
  if !pos - payload_start > payload_len then
    fail "chunk at %d: truncated repeat header" offset;
  if bref >= offset then fail "chunk at %d: forward body reference %d" offset bref;
  (b, iters, bref, bcrc, !pos)

(* Peek a body-def chunk's event count at the head of its payload.  Every
   encoded event costs at least one byte, so a count exceeding the payload
   length is corrupt. *)
let body_meta raw ~offset ~payload_len ~payload_start =
  let pos = ref payload_start in
  let b = leb_u raw pos in
  if b < 1 || b > payload_len then
    fail "chunk at %d: inconsistent body-def event count %d" offset b;
  (b, !pos)

(* Binary search the (offset-sorted) chunk table for the chunk starting at
   exactly [off]. *)
let find_chunk_at chunks off =
  let lo = ref 0 and hi = ref (Array.length chunks - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = chunks.(mid) in
    if c.c_offset = off then found := mid
    else if c.c_offset < off then lo := mid + 1
    else hi := mid - 1
  done;
  if !found >= 0 then Some !found else None

let read_u8 raw pos limit =
  if !pos >= limit then fail "truncated field table at %d" !pos;
  let v = Char.code raw.[!pos] in
  incr pos;
  v

(* Decode one repeat chunk and expand it to its [n] raw events: the body
   decodes once from the body-def chunk it references (re-seeded at this
   repeat's [first_icount] — the def's blob is icount-relative precisely so
   many repeats can share it), then each further iteration is reconstructed
   by advancing the numeric fields — one add per field for affine strides, a
   pre-decoded literal delta otherwise.  This is the replay-speedup path:
   iterations 1..N-1 pay no varint decoding for affine fields (the common
   case).  The reference was cross-checked against the def's payload CRC at
   load (strict) or scan (salvage) time; here only structural bounds are
   re-validated. *)
let iter_repeat ~verify ~verified ~chunks raw ~offset ~n ~first_icount
    ~payload_len ~payload_start sink =
  let payload_end = payload_start + payload_len in
  let b, iters, bref, _bcrc, tables_start =
    repeat_meta raw ~offset ~n ~payload_len ~payload_start
  in
  let def_idx =
    match find_chunk_at chunks bref with
    | Some i when chunks.(i).c_kind = Body -> i
    | _ -> fail "chunk at %d: dangling body reference %d" offset bref
  in
  let _, _, _, dplen, _, _, _, dpstart = parse_chunk ~v4:true raw bref in
  if verify && not verified.(def_idx) then begin
    check_crc ~v4:true raw bref (parse_chunk ~v4:true raw bref);
    verified.(def_idx) <- true
  end;
  let dpos = ref dpstart in
  let db = leb_u raw dpos in
  if db <> b then
    fail "chunk at %d: body length disagrees with its def at %d" offset bref;
  let dend = dpstart + dplen in
  let st = Event.fresh_state ~icount:first_icount () in
  let body = Array.make b (Event.End { icount = 0 }) in
  for k = 0 to b - 1 do
    match Event.decode st raw dpos with
    | ev -> body.(k) <- ev
    | exception Leb.Truncated p -> fail "truncated event at %d" p
    | exception Failure msg -> fail "%s" msg
  done;
  if !dpos <> dend then fail "chunk at %d: body overruns its def" bref;
  let pos = ref tables_start in
  let foff = Array.make (b + 1) 0 in
  for k = 0 to b - 1 do
    foff.(k + 1) <- foff.(k) + Event.num_fields body.(k)
  done;
  let nf = foff.(b) in
  let vals = Array.make (max nf 1) 0 in
  for k = 0 to b - 1 do
    ignore (Event.read_num_fields body.(k) vals foff.(k))
  done;
  let literal = Array.make (max nf 1) false in
  let stride = Array.make (max nf 1) 0 in
  let lits = Array.make (max nf 1) [||] in
  (* literal-mode bitmap: ceil(nf/8) bytes, bit f set = field f literal *)
  for f = 0 to nf - 1 do
    if f mod 8 = 0 then begin
      let byte = read_u8 raw pos payload_end in
      for bit = 0 to min 7 (nf - 1 - f) do
        literal.(f + bit) <- byte land (1 lsl bit) <> 0
      done
    end
  done;
  for f = 0 to nf - 1 do
    if literal.(f) then begin
      (* each literal delta costs at least one byte, so a valid table
         cannot claim more iterations than the payload holds *)
      if iters - 1 > payload_len then
        fail "chunk at %d: literal table overruns payload" offset;
      let a = Array.make (max (iters - 1) 1) 0 in
      for i = 0 to iters - 2 do
        a.(i) <- leb_s raw pos
      done;
      lits.(f) <- a
    end
    else stride.(f) <- leb_s raw pos
  done;
  if !pos <> payload_end then
    fail "chunk at %d: payload length mismatch" offset;
  (* iteration 0: the body itself *)
  for k = 0 to b - 1 do
    sink body.(k)
  done;
  for i = 1 to iters - 1 do
    for k = 0 to b - 1 do
      let lo = foff.(k) in
      let hi = foff.(k + 1) in
      for f = lo to hi - 1 do
        vals.(f) <-
          vals.(f)
          + (if literal.(f) then lits.(f).(i - 1) else stride.(f))
      done;
      sink (Event.with_num_fields body.(k) vals lo)
    done
  done

(* Decode one chunk's events starting at its header offset.  For v3/v4 the
   chunk's CRC is verified (unless the reader was loaded with
   [~verify:false]) before any event is decoded, so a corrupt payload
   surfaces as [Format_error], never as garbage events.  [verified] carries
   the per-chunk already-verified bits ([idx] indexes it): a chunk whose bit
   is set skips the digest, and a chunk that verifies here sets its bit, so
   each chunk pays the CRC at most once per process no matter how many
   replay passes or domains walk the trace. *)
let iter_chunk ~version ~verify ~verified ~chunks ~idx raw chunk sink =
  if version >= 3 then begin
    let v4 = version = 4 in
    let ((kind, n, fic, plen, _, _, _, pstart) as parts) =
      parse_chunk ~v4 raw chunk.c_offset
    in
    if n <> chunk.c_events || fic <> chunk.c_first_icount then
      fail "chunk at %d: header disagrees with index" chunk.c_offset;
    if verify && not verified.(idx) then begin
      check_crc ~v4 raw chunk.c_offset parts;
      verified.(idx) <- true
    end;
    match kind with
    | Body -> ()  (* referenced storage, not stream events *)
    | Repeat ->
        iter_repeat ~verify ~verified ~chunks raw ~offset:chunk.c_offset ~n
          ~first_icount:fic ~payload_len:plen ~payload_start:pstart sink
    | Plain ->
        let payload_end = pstart + plen in
        let pos = ref pstart in
        let st = Event.fresh_state ~icount:fic () in
        (* only decode failures are container corruption; an exception
           raised by the sink itself (a replayed tool crashing) must pass
           through untouched so replay supervision can attribute it to the
           tool, not the trace *)
        for _ = 1 to n do
          match Event.decode st raw pos with
          | ev -> sink ev
          | exception Leb.Truncated p -> fail "truncated event at %d" p
          | exception Failure msg -> fail "%s" msg
        done;
        if !pos <> payload_end then
          fail "chunk at %d: payload length mismatch" chunk.c_offset
  end
  else begin
    let pos = ref chunk.c_offset in
    let n = leb_u raw pos in
    let first_icount = leb_u raw pos in
    let payload_len = leb_u raw pos in
    if n < 0 || payload_len < 0 then
      fail "chunk at %d: negative header field" chunk.c_offset;
    let payload_start = !pos in
    let payload_end = payload_start + payload_len in
    if payload_end > String.length raw then
      fail "chunk at %d overruns file" chunk.c_offset;
    let st = Event.fresh_state ~icount:first_icount () in
    for _ = 1 to n do
      match Event.decode st raw pos with
      | ev -> sink ev
      | exception Leb.Truncated p -> fail "truncated event at %d" p
      | exception Failure msg -> fail "%s" msg
    done;
    if !pos <> payload_end then
      fail "chunk at %d: payload length mismatch" chunk.c_offset
  end

(* ---------- strict load ---------- *)

let parse_index raw ~version ~hlen ~index_offset =
  let len = String.length raw in
  let pos = ref index_offset in
  let n_chunks = leb_u raw pos in
  (* a corrupted count must fail cleanly, not OOM in Array.init: every chunk
     costs at least 5 bytes on disk *)
  if n_chunks < 0 || n_chunks > len then fail "chunk count %d out of range" n_chunks;
  let off = ref 0 and ic = ref 0 in
  let chunks =
    Array.init n_chunks (fun _ ->
        off := !off + leb_u raw pos;
        ic := !ic + leb_u raw pos;
        let c_events = leb_u raw pos in
        if !off < hlen || !off >= index_offset then
          fail "chunk offset %d out of range" !off;
        {
          c_offset = !off;
          c_first_icount = !ic;
          c_events;
          c_kind = Plain;
          c_stored = c_events;
        })
  in
  if version >= 3 then begin
    let v4 = version = 4 in
    (* the chunks listed by the index must exactly tile the chunk region —
       a tampered index cannot silently select, duplicate or skip chunks.
       The same pass resolves each chunk's kind and stored-event count, and
       cross-checks every repeat chunk's body reference against the def
       chunks seen so far (defs always precede their users): the referenced
       offset must hold a def whose payload CRC and event count match what
       the repeat recorded, so a reference can never silently resolve to
       the wrong body. *)
    let expect = ref hlen in
    let defs = Hashtbl.create 16 in  (* def offset -> (payload crc, b) *)
    let chunks =
      Array.map
        (fun c ->
          if c.c_offset <> !expect then
            fail "index does not tile the chunk region (chunk at %d, expected %d)"
              c.c_offset !expect;
          let kind, n, fic, plen, _, _, _, pstart =
            parse_chunk ~v4 raw c.c_offset
          in
          if n <> c.c_events || fic <> c.c_first_icount then
            fail "chunk at %d: header disagrees with index" c.c_offset;
          expect := pstart + plen;
          match kind with
          | Plain -> c
          | Body ->
              let b, _ =
                body_meta raw ~offset:c.c_offset ~payload_len:plen
                  ~payload_start:pstart
              in
              Hashtbl.replace defs c.c_offset
                (Crc32.digest ~pos:pstart ~len:plen raw, b);
              { c with c_kind = Body; c_stored = b }
          | Repeat ->
              let b, _, bref, bcrc, _ =
                repeat_meta raw ~offset:c.c_offset ~n ~payload_len:plen
                  ~payload_start:pstart
              in
              (match Hashtbl.find_opt defs bref with
              | Some (pcrc, db) when pcrc = bcrc && db = b -> ()
              | Some _ ->
                  fail "chunk at %d: body reference %d does not match its def"
                    c.c_offset bref
              | None ->
                  fail "chunk at %d: dangling body reference %d" c.c_offset
                    bref);
              { c with c_kind = Repeat; c_stored = 0 })
        chunks
    in
    if !expect <> index_offset then
      fail "chunk region ends at %d but index starts at %d" !expect index_offset;
    chunks
  end
  else chunks

let of_raw ~verify raw =
  let mlen = String.length Writer.magic in
  if String.length raw < mlen then fail "bad magic (file shorter than a header)";
  let version =
    match String.sub raw 0 mlen with
    | m when m = Writer.magic -> 3
    | m when m = Writer.magic_v4 -> 4
    | m when m = Writer.magic_v2 -> 2
    | _ -> fail "bad magic (not a tquad trace, or an unknown container version)"
  in
  let hlen = Writer.header_bytes in
  let tlen = String.length Writer.trailer_magic in
  let len = String.length raw in
  if len < hlen + 8 + tlen
     || String.sub raw (len - tlen) tlen <> Writer.trailer_magic
  then fail "bad trailer (truncated recording? try salvage)";
  let fingerprint = le64 raw mlen in
  let index_offset =
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor Char.code raw.[len - tlen - 8 + i]
    done;
    !v
  in
  if index_offset < hlen || index_offset > len - tlen - 8 then
    fail "index offset %d out of range" index_offset;
  let chunks = parse_index raw ~version ~hlen ~index_offset in
  let n_chunks = Array.length chunks in
  let verified = Array.make n_chunks false in
  let n_events = Array.fold_left (fun acc c -> acc + c.c_events) 0 chunks in
  let last_icount = ref 0 in
  (* the last chunk with events — body-def chunks decode to none *)
  let li = ref (n_chunks - 1) in
  while !li >= 0 && chunks.(!li).c_events = 0 do
    decr li
  done;
  if !li >= 0 then
    iter_chunk ~version ~verify ~verified ~chunks ~idx:!li raw chunks.(!li)
      (fun ev -> last_icount := Event.icount ev);
  {
    raw;
    version;
    verify;
    chunks;
    verified;
    n_events;
    last_icount = !last_icount;
    fingerprint;
    salvage = None;
  }

(* ---------- salvage load ---------- *)

(* CRC-verify a candidate chunk at [offset]; [None] if anything about it is
   implausible.  A verifying chunk is, with probability 1 - 2^-32, a chunk
   the writer actually flushed. *)
let try_chunk ~v4 raw offset =
  match parse_chunk ~v4 raw offset with
  | (kind, n, fic, plen, _, _, _, pstart) as parts ->
      let plausible =
        plen >= 1 && (match kind with Body -> n = 0 | Plain | Repeat -> n >= 1)
      in
      if not plausible then None
      else begin
        match
          check_crc ~v4 raw offset parts;
          (match kind with
          | Plain ->
              {
                c_offset = offset;
                c_first_icount = fic;
                c_events = n;
                c_kind = Plain;
                c_stored = n;
              }
          | Body ->
              let b, _ =
                body_meta raw ~offset ~payload_len:plen ~payload_start:pstart
              in
              {
                c_offset = offset;
                c_first_icount = fic;
                c_events = 0;
                c_kind = Body;
                c_stored = b;
              }
          | Repeat ->
              let _ =
                repeat_meta raw ~offset ~n ~payload_len:plen
                  ~payload_start:pstart
              in
              {
                c_offset = offset;
                c_first_icount = fic;
                c_events = n;
                c_kind = Repeat;
                c_stored = 0;
              })
        with
        | c -> Some (c, pstart + plen)
        | exception Format_error _ -> None
      end
  | exception Format_error _ -> None

(* Does the byte range [gap_start, len) hold exactly the index + trailer of
   an intact container?  Then the trailing "gap" of a clean forward scan is
   structure, not damage. *)
let tail_is_index raw gap_start =
  let tlen = String.length Writer.trailer_magic in
  let len = String.length raw in
  len - gap_start >= 8 + tlen
  && String.sub raw (len - tlen) tlen = Writer.trailer_magic
  && (let v = ref 0 in
      for i = 7 downto 0 do
        v := (!v lsl 8) lor Char.code raw.[len - tlen - 8 + i]
      done;
      !v = gap_start)

let salvage_scan ~v4 raw =
  let len = String.length raw in
  let hlen = Writer.header_bytes in
  let chunks = ref [] in
  let n_chunks = ref 0 in
  let dropped_chunks = ref 0 and dropped_bytes = ref 0 in
  let last_span = ref None in  (* (offset, end) of the last accepted chunk *)
  let gap_start = ref (-1) in
  let intact_tail = ref false in
  let note_gap upto =
    if !gap_start >= 0 then begin
      incr dropped_chunks;
      dropped_bytes := !dropped_bytes + (upto - !gap_start);
      gap_start := -1
    end
  in
  let pos = ref hlen in
  while !pos < len do
    match try_chunk ~v4 raw !pos with
    | Some (c, cend) ->
        note_gap !pos;
        (* a duplicated chunk is byte-identical to its predecessor; dropping
           the copy keeps the salvaged events a subsequence of the original *)
        let dup =
          match !last_span with
          | Some (poff, pend) ->
              cend - !pos = pend - poff
              && String.sub raw poff (pend - poff) = String.sub raw !pos (cend - !pos)
          | None -> false
        in
        if not dup then begin
          chunks := c :: !chunks;
          incr n_chunks
        end;
        last_span := Some (!pos, cend);
        pos := cend
    | None ->
        (* resync: skip forward one byte at a time until the next verifying
           chunk; everything skipped is one dropped region *)
        if !gap_start < 0 then gap_start := !pos;
        incr pos
  done;
  if !gap_start >= 0 && tail_is_index raw !gap_start then begin
    intact_tail := true;
    gap_start := -1
  end;
  note_gap len;
  (* a repeat chunk is only as good as its body-def: if the def fell inside
     a corrupt region (or the surviving bytes at the referenced offset no
     longer match the recorded payload CRC), the repeat cannot be expanded
     and is dropped like any other damaged region.  Orphaned defs are kept —
     they decode to no events and cost nothing. *)
  let scanned = Array.of_list (List.rev !chunks) in
  let chunks_kept =
    if not v4 then scanned
    else begin
      let defs = Hashtbl.create 16 in
      Array.iter
        (fun c ->
          if c.c_kind = Body then begin
            let _, _, _, plen, _, _, _, pstart = parse_chunk ~v4 raw c.c_offset in
            Hashtbl.replace defs c.c_offset
              (Crc32.digest ~pos:pstart ~len:plen raw, c.c_stored)
          end)
        scanned;
      let kept =
        List.filter
          (fun c ->
            match c.c_kind with
            | Plain | Body -> true
            | Repeat ->
                let _, _, _, plen, _, _, _, pstart =
                  parse_chunk ~v4 raw c.c_offset
                in
                let b, _, bref, bcrc, _ =
                  repeat_meta raw ~offset:c.c_offset ~n:c.c_events
                    ~payload_len:plen ~payload_start:pstart
                in
                (match Hashtbl.find_opt defs bref with
                | Some (pcrc, db) when pcrc = bcrc && db = b -> true
                | _ ->
                    incr dropped_chunks;
                    dropped_bytes :=
                      !dropped_bytes + (pstart + plen - c.c_offset);
                    false))
          (Array.to_list scanned)
      in
      Array.of_list kept
    end
  in
  n_chunks := Array.length chunks_kept;
  let reason =
    if !dropped_chunks = 0 then
      if !intact_tail then "all chunks verified; container intact"
      else
        "all chunks verified; trailer/index missing (recording not \
         finalized?)"
    else
      Printf.sprintf
        "%d corrupt or unexpandable region(s) totalling %d byte(s) dropped \
         by the forward scan"
        !dropped_chunks !dropped_bytes
  in
  ( chunks_kept,
    {
      salvaged_chunks = !n_chunks;
      dropped_chunks = !dropped_chunks;
      dropped_bytes = !dropped_bytes;
      reason;
    } )

let of_raw_salvage ~verify raw =
  let mlen = String.length Writer.magic in
  if String.length raw < mlen then fail "bad magic (file shorter than a header)";
  let version =
    match String.sub raw 0 mlen with
    | m when m = Writer.magic -> 3
    | m when m = Writer.magic_v4 -> 4
    | m when m = Writer.magic_v2 ->
        fail "salvage needs a v3/v4 container (v2 chunks carry no checksums)"
    | _ -> fail "bad magic (not a tquad trace, or an unknown container version)"
  in
  if String.length raw < Writer.header_bytes then fail "truncated header";
  let fingerprint = le64 raw mlen in
  let chunks, info = salvage_scan ~v4:(version = 4) raw in
  let n_chunks = Array.length chunks in
  (* the forward scan only kept CRC-verified chunks, so they are all born
     verified *)
  let verified = Array.make n_chunks true in
  let n_events = Array.fold_left (fun acc c -> acc + c.c_events) 0 chunks in
  let last_icount = ref 0 in
  (* the last chunk with events — a trailing orphaned def decodes to none *)
  let li = ref (n_chunks - 1) in
  while !li >= 0 && chunks.(!li).c_events = 0 do
    decr li
  done;
  if !li >= 0 then
    iter_chunk ~version ~verify:true ~verified ~chunks ~idx:!li raw
      chunks.(!li)
      (fun ev -> last_icount := Event.icount ev);
  {
    raw;
    version;
    verify;
    chunks;
    verified;
    n_events;
    last_icount = !last_icount;
    fingerprint;
    salvage = Some info;
  }

let of_string ?(verify = true) ?(mode = Strict) raw =
  match mode with
  | Strict -> of_raw ~verify raw
  | Salvage -> of_raw_salvage ~verify raw

let load ?verify ?mode path = of_string ?verify ?mode (read_file path)

(* Same loop as [iter_chunk], dispatching on the event's tag instead of
   through one composite sink: the replay driver keeps one fused sink per
   tag, and routing here saves a closure hop per event.  Repeat chunks go
   through the generic expansion with a dispatching sink — they are the
   compressed minority of chunks, and expansion already amortizes the
   decode. *)
let iter_chunk_tags ~version ~verify ~verified ~chunks ~idx raw chunk
    (per_tag : (Event.t -> unit) array) =
  match chunk.c_kind with
  | Repeat | Body ->
      iter_chunk ~version ~verify ~verified ~chunks ~idx raw chunk (fun ev ->
          per_tag.(Event.tag ev) ev)
  | Plain ->
      let n, first_icount, payload_len, payload_start =
        if version >= 3 then begin
          let v4 = version = 4 in
          let ((_, n, fic, plen, _, _, _, pstart) as parts) =
            parse_chunk ~v4 raw chunk.c_offset
          in
          if n <> chunk.c_events || fic <> chunk.c_first_icount then
            fail "chunk at %d: header disagrees with index" chunk.c_offset;
          if verify && not verified.(idx) then begin
            check_crc ~v4 raw chunk.c_offset parts;
            verified.(idx) <- true
          end;
          (n, fic, plen, pstart)
        end
        else begin
          let pos = ref chunk.c_offset in
          let n = leb_u raw pos in
          let first_icount = leb_u raw pos in
          let payload_len = leb_u raw pos in
          if n < 0 || payload_len < 0 then
            fail "chunk at %d: negative header field" chunk.c_offset;
          (n, first_icount, payload_len, !pos)
        end
      in
      let payload_end = payload_start + payload_len in
      if payload_end > String.length raw then
        fail "chunk at %d overruns file" chunk.c_offset;
      let pos = ref payload_start in
      let st = Event.fresh_state ~icount:first_icount () in
      for _ = 1 to n do
        match Event.decode st raw pos with
        | ev -> per_tag.(Event.tag ev) ev
        | exception Leb.Truncated p -> fail "truncated event at %d" p
        | exception Failure msg -> fail "%s" msg
      done;
      if !pos <> payload_end then
        fail "chunk at %d: payload length mismatch" chunk.c_offset

let iter_tags t per_tag =
  if Array.length per_tag <> Event.n_kinds then
    invalid_arg "Trace.Reader.iter_tags: need one sink per event kind";
  Array.iteri
    (fun idx c ->
      iter_chunk_tags ~version:t.version ~verify:t.verify ~verified:t.verified
        ~chunks:t.chunks ~idx t.raw c per_tag)
    t.chunks

let iter ?from_icount t sink =
  let start =
    match from_icount with
    | None -> 0
    | Some target ->
        (* last chunk whose first_icount <= target; events are icount-sorted
           across chunks, so earlier chunks hold nothing >= target that this
           chunk misses *)
        let lo = ref 0 and hi = ref (Array.length t.chunks - 1) in
        let best = ref 0 in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          if t.chunks.(mid).c_first_icount <= target then begin
            best := mid;
            lo := mid + 1
          end
          else hi := mid - 1
        done;
        !best
  in
  let sink =
    match from_icount with
    | None -> sink
    | Some target -> fun ev -> if Event.icount ev >= target then sink ev
  in
  for i = start to Array.length t.chunks - 1 do
    iter_chunk ~version:t.version ~verify:t.verify ~verified:t.verified
      ~chunks:t.chunks ~idx:i t.raw t.chunks.(i) sink
  done

let crc_check ?(lo = 0) ?hi t =
  let n = Array.length t.chunks in
  let hi = Option.value hi ~default:n in
  if lo < 0 || hi > n || lo > hi then
    invalid_arg "Trace.Reader.crc_check: chunk range out of bounds";
  if t.version < 3 then 0 (* v2 carries no checksums *)
  else begin
    let v4 = t.version = 4 in
    for idx = lo to hi - 1 do
      if not t.verified.(idx) then begin
        let off = t.chunks.(idx).c_offset in
        check_crc ~v4 t.raw off (parse_chunk ~v4 t.raw off);
        t.verified.(idx) <- true
      end
    done;
    hi - lo
  end

let verified_chunks t =
  Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 t.verified

(* Decode one chunk into an array — the serve layer's chunk cache entry.
   The chunk is CRC-verified first (at most once per process, via the
   verified bit all other passes share), so a cached entry is always a
   decoded-and-verified chunk.  Repeat chunks expand to their raw events —
   the cache, like the index, speaks decoded-event units. *)
let chunk_events t idx =
  if idx < 0 || idx >= Array.length t.chunks then
    invalid_arg "Trace.Reader.chunk_events: chunk index out of range";
  let c = t.chunks.(idx) in
  let out = Array.make c.c_events (Event.End { icount = 0 }) in
  let k = ref 0 in
  iter_chunk ~version:t.version ~verify:t.verify ~verified:t.verified
    ~chunks:t.chunks ~idx t.raw c
    (fun ev ->
      (* v2 indexes are not cross-checked against chunk headers at load
         time, so a lying v2 index must surface as Format_error here, not
         as an array bounds crash *)
      if !k >= c.c_events then
        fail "chunk at %d: more events than the index records" c.c_offset;
      out.(!k) <- ev;
      incr k);
  out

let chunk_event_count t idx =
  if idx < 0 || idx >= Array.length t.chunks then
    invalid_arg "Trace.Reader.chunk_event_count: chunk index out of range";
  t.chunks.(idx).c_events

let fingerprint t = t.fingerprint
let verifies t = t.verify
let n_events t = t.n_events
let n_chunks t = Array.length t.chunks
let last_icount t = t.last_icount
let byte_size t = String.length t.raw
let version t = t.version
let salvage_info t = t.salvage

let stored_events t =
  Array.fold_left (fun acc c -> acc + c.c_stored) 0 t.chunks

let plain_chunks t =
  Array.fold_left
    (fun acc c -> if c.c_kind = Plain then acc + 1 else acc)
    0 t.chunks

let repeat_chunks t =
  Array.fold_left
    (fun acc c -> if c.c_kind = Repeat then acc + 1 else acc)
    0 t.chunks

let body_chunks t =
  Array.fold_left
    (fun acc c -> if c.c_kind = Body then acc + 1 else acc)
    0 t.chunks
