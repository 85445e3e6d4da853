(* Paged files: page-granular append / read / overwrite with range
   checks, growth over many pages, a file-backed round trip through
   sync, close and reopen, and multi-page writes: the same bytes as page
   writes on every backend, and a tear in the middle of one. *)

open Repro_storage

let test_paged_file_memory () =
  let pf = Paged_file.create_memory ~page_size:128 () in
  Alcotest.(check int) "empty" 0 (Paged_file.pages pf);
  let page i = Bytes.make 128 (Char.chr (65 + i)) in
  let a = Paged_file.append pf (page 0) in
  let b = Paged_file.append pf (page 1) in
  Alcotest.(check (pair int int)) "indices" (0, 1) (a, b);
  Alcotest.(check bytes) "read back" (page 1) (Paged_file.read pf 1);
  Paged_file.write pf 0 (page 2);
  Alcotest.(check bytes) "overwrite" (page 2) (Paged_file.read pf 0);
  (match Paged_file.read pf 7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range read accepted");
  match Paged_file.write pf 5 (page 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hole accepted"

let test_paged_file_growth () =
  let pf = Paged_file.create_memory ~page_size:64 () in
  for i = 0 to 999 do
    let p = Bytes.make 64 '\000' in
    Bytes.set_int32_le p 0 (Int32.of_int i);
    ignore (Paged_file.append pf p)
  done;
  Alcotest.(check int) "pages" 1000 (Paged_file.pages pf);
  for i = 0 to 999 do
    let p = Paged_file.read pf i in
    if Int32.to_int (Bytes.get_int32_le p 0) <> i then Alcotest.failf "page %d corrupted" i
  done

let test_paged_file_on_disk () =
  let path = Filename.temp_file "blink" ".pages" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let pf = Paged_file.create_file ~page_size:256 path in
      let mk i = Bytes.init 256 (fun j -> Char.chr ((i + j) mod 256)) in
      for i = 0 to 9 do
        ignore (Paged_file.append pf (mk i))
      done;
      Paged_file.sync pf;
      Paged_file.close pf;
      let pf = Paged_file.open_file ~page_size:256 path in
      Alcotest.(check int) "pages" 10 (Paged_file.pages pf);
      for i = 0 to 9 do
        Alcotest.(check bytes) (Printf.sprintf "page %d" i) (mk i) (Paged_file.read pf i)
      done;
      Paged_file.close pf)

(* Two runs of whole pages, the second overlapping the first and growing
   the device, taken from inside a larger buffer: the same pages as the
   page-by-page writes, on every backend. *)
let test_write_pages () =
  let ps = 128 in
  let src = Bytes.init (9 * ps) (fun i -> Char.chr (((i * 7) + (i / ps)) land 255)) in
  let check name fresh =
    let by_run = fresh () and by_page = fresh () in
    Paged_file.write_pages by_run 0 src ~pos:ps ~count:5;
    Paged_file.write_pages by_run 3 src ~pos:(2 * ps) ~count:4;
    Paged_file.write_pages by_run 7 src ~pos:0 ~count:0;
    for i = 0 to 4 do
      Paged_file.write by_page i (Bytes.sub src ((i + 1) * ps) ps)
    done;
    for i = 0 to 3 do
      Paged_file.write by_page (3 + i) (Bytes.sub src ((i + 2) * ps) ps)
    done;
    Alcotest.(check int) (name ^ ": pages") (Paged_file.pages by_page) (Paged_file.pages by_run);
    for i = 0 to Paged_file.pages by_page - 1 do
      Alcotest.(check bytes)
        (Printf.sprintf "%s: page %d" name i)
        (Paged_file.read by_page i) (Paged_file.read by_run i)
    done;
    (match Paged_file.write_pages by_run 9 src ~pos:0 ~count:1 with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: hole accepted" name);
    match Paged_file.write_pages by_run 0 src ~pos:ps ~count:9 with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: source overrun accepted" name
  in
  check "memory" (fun () -> Paged_file.create_memory ~page_size:ps ());
  check "shadow" (fun () -> Paged_file.create_shadow ~page_size:ps ());
  let paths = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !paths)
    (fun () ->
      check "file" (fun () ->
          let path = Filename.temp_file "blink" ".pages" in
          paths := path :: !paths;
          Paged_file.create_file ~page_size:ps path))

(* A shadow device tears the [j]th page of a 5-page run: the pages before
   it were written whole (the device reads them back new) but nothing
   synced them, so the crash image keeps them whole and old; page [j] is
   a prefix of the new page over the old one. *)
let test_torn_run () =
  let ps = 64 and n = 5 in
  for j = 0 to n - 1 do
    Failpoint.reset ();
    let f = Paged_file.create_shadow ~page_size:ps () in
    for _ = 1 to n do
      ignore (Paged_file.append f (Bytes.make ps 'o'))
    done;
    Paged_file.sync f;
    let run = Bytes.init (n * ps) (fun i -> Char.chr (Char.code 'a' + (i / ps))) in
    Failpoint.set "paged_file.pwrite" (Failpoint.Torn_at (j + 1));
    (match Paged_file.write_pages f 0 run ~pos:0 ~count:n with
    | exception Failpoint.Crash _ -> ()
    | () -> Alcotest.failf "no tear at page %d" j);
    let img = Paged_file.crash_image f in
    for i = 0 to n - 1 do
      let page = Paged_file.read img i in
      let mine = Bytes.sub run (i * ps) ps in
      if i < j then begin
        Alcotest.(check bytes) (Printf.sprintf "page %d written whole" i) mine
          (Paged_file.read f i);
        Alcotest.(check bytes) (Printf.sprintf "page %d whole in the image" i)
          (Bytes.make ps 'o') page
      end
      else if i = j then begin
        let k = ref 0 in
        while !k < ps && Bytes.get page !k = Bytes.get mine !k do incr k done;
        Alcotest.(check bool) (Printf.sprintf "page %d torn" j) true (!k > 0 && !k < ps);
        Alcotest.(check string) "old bytes past the tear"
          (String.make (ps - !k) 'o') (Bytes.sub_string page !k (ps - !k))
      end
      else
        Alcotest.(check bytes) (Printf.sprintf "page %d untouched" i)
          (Bytes.make ps 'o') page
    done
  done;
  Failpoint.reset ()

let suite =
  [
    Alcotest.test_case "paged file (memory)" `Quick test_paged_file_memory;
    Alcotest.test_case "paged file growth" `Quick test_paged_file_growth;
    Alcotest.test_case "paged file on disk" `Quick test_paged_file_on_disk;
    Alcotest.test_case "multi-page write = page writes" `Quick test_write_pages;
    Alcotest.test_case "torn page in a multi-page write" `Quick test_torn_run;
  ]
