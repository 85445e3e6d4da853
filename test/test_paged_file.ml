(* Paged files: page-granular append / read / overwrite with range
   checks, growth over many pages, and a file-backed round trip through
   sync, close and reopen. *)

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

let suite =
  [
    Alcotest.test_case "paged file (memory)" `Quick test_paged_file_memory;
    Alcotest.test_case "paged file growth" `Quick test_paged_file_growth;
    Alcotest.test_case "paged file on disk" `Quick test_paged_file_on_disk;
  ]
