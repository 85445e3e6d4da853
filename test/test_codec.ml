(* Page codec round-trip tests, including property tests and corruption
   detection. *)

open Repro_storage
module C = Page_codec.Make (Key.Int)
module CS = Page_codec.Make (Key.Str)
module KP = Key.Pair (Key.Int) (Key.Str)
module CP = Page_codec.Make (KP)

let node_eq (a : int Node.t) (b : int Node.t) =
  a.Node.level = b.Node.level
  && a.Node.keys = b.Node.keys
  && a.Node.ptrs = b.Node.ptrs
  && Bound.compare Int.compare a.Node.low b.Node.low = 0
  && Bound.compare Int.compare a.Node.high b.Node.high = 0
  && a.Node.link = b.Node.link
  && a.Node.is_root = b.Node.is_root
  && a.Node.state = b.Node.state

let mk ?(level = 0) ?(low = Bound.Neg_inf) ?(high = Bound.Pos_inf) ?link
    ?(is_root = false) ?(state = Node.Live) keys ptrs =
  {
    Node.level;
    keys = Array.of_list keys;
    ptrs = Array.of_list ptrs;
    low;
    high;
    link;
    is_root;
    state;
  }

let test_roundtrip_leaf () =
  let n = mk ~high:(Bound.Key 30) ~link:42 [ 10; 20; 30 ] [ 1; 2; 3 ] in
  Alcotest.(check bool) "leaf roundtrip" true (node_eq n (C.of_bytes (C.to_bytes n)))

let test_roundtrip_internal () =
  let n =
    mk ~level:3 ~low:(Bound.Key 5) ~high:(Bound.Key 99) ~link:7 [ 10; 20 ] [ 100; 101; 102 ]
  in
  Alcotest.(check bool) "internal roundtrip" true (node_eq n (C.of_bytes (C.to_bytes n)))

let test_roundtrip_root_and_deleted () =
  let root = mk ~level:2 ~is_root:true [ 50 ] [ 1; 2 ] in
  Alcotest.(check bool) "root bit" true (node_eq root (C.of_bytes (C.to_bytes root)));
  let dead = mk ~state:(Node.Deleted 77) [] [] in
  Alcotest.(check bool) "tombstone" true (node_eq dead (C.of_bytes (C.to_bytes dead)))

let test_roundtrip_empty () =
  let n = mk [] [] in
  Alcotest.(check bool) "empty node" true (node_eq n (C.of_bytes (C.to_bytes n)))

let test_corruption_detected () =
  let n = mk [ 1; 2 ] [ 10; 20 ] in
  let b = C.to_bytes n in
  Bytes.set_uint8 b 0 0x00;
  (match C.of_bytes b with
  | exception Page_codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let b2 = C.to_bytes n in
  Bytes.set_uint8 b2 1 99;
  match C.of_bytes b2 with
  | exception Page_codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad version accepted"

(* The frame's extent is read from its header: a node written into a
   zero-padded page spans exactly its encoding; anything that does not
   start with a fitting frame header has no extent. *)
let test_frame_length () =
  let b = C.to_bytes (mk ~link:3 [ 1; 2; 3 ] [ 10; 20; 30 ]) in
  let page = Bytes.make 512 '\000' in
  Bytes.blit b 0 page 0 (Bytes.length b);
  Alcotest.(check (option int)) "padded page" (Some (Bytes.length b))
    (Page_codec.frame_length page);
  Alcotest.(check (option int)) "zero page" None
    (Page_codec.frame_length (Bytes.make 512 '\000'));
  Alcotest.(check (option int)) "body past the page" None
    (Page_codec.frame_length (Bytes.sub b 0 (Bytes.length b - 1)))

let test_string_keys () =
  let n =
    {
      Node.level = 0;
      keys = [| "apple"; "banana"; "cherry" |];
      ptrs = [| 1; 2; 3 |];
      low = Bound.Neg_inf;
      high = Bound.Key "cherry";
      link = Some 9;
      is_root = false;
      state = Node.Live;
    }
  in
  let n' = CS.of_bytes (CS.to_bytes n) in
  Alcotest.(check bool) "string keys roundtrip" true
    (n'.Node.keys = n.Node.keys && n'.Node.ptrs = n.Node.ptrs
    && Bound.compare String.compare n'.Node.high n.Node.high = 0);
  (* composite keys: an (int, string) pair encodes both halves *)
  let p =
    {
      Node.level = 1;
      keys = [| (7, "buy"); (7, "login"); (25, "") |];
      ptrs = [| 4; 5; 6; 7 |];
      low = Bound.Key (3, "click");
      high = Bound.Key (25, "logout");
      link = Some 11;
      is_root = false;
      state = Node.Live;
    }
  in
  let p' = CP.of_bytes (CP.to_bytes p) in
  Alcotest.(check bool) "pair keys roundtrip" true
    (p'.Node.keys = p.Node.keys && p'.Node.ptrs = p.Node.ptrs
    && p'.Node.level = p.Node.level && p'.Node.link = p.Node.link
    && Bound.compare KP.compare p'.Node.low p.Node.low = 0
    && Bound.compare KP.compare p'.Node.high p.Node.high = 0)

let test_multiple_in_buffer () =
  let a = mk [ 1 ] [ 10 ] and b = mk ~level:1 [ 2; 3 ] [ 20; 30; 40 ] in
  let buf = Buffer.create 64 in
  C.encode buf a;
  C.encode buf b;
  let bytes = Buffer.to_bytes buf in
  let a', pos = C.decode bytes ~pos:0 in
  let b', _ = C.decode bytes ~pos in
  Alcotest.(check bool) "first" true (node_eq a a');
  Alcotest.(check bool) "second" true (node_eq b b')

let prop_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip (random nodes)" ~count:500
    QCheck.(
      quad
        (list_of_size Gen.(int_range 0 20) (int_range (-1000) 1000))
        (list_of_size Gen.(int_range 0 21) (int_range 0 100000))
        (option (int_range 0 9999))
        bool)
    (fun (keys, ptrs, link, is_root) ->
      let keys = List.sort_uniq compare keys in
      let n = mk ~link:(Option.value ~default:0 link) ~is_root keys ptrs in
      let n = if link = None then { n with Node.link = None } else n in
      node_eq n (C.of_bytes (C.to_bytes n)))

(* ---------- v3 varint frames (version-record pages) ---------- *)

let mk_vrec ptrs =
  mk ~level:Node.vrec_level ~is_root:true (([] : int list)) ptrs

let test_vrec_roundtrip () =
  (* negative ints (zigzag), large magnitudes, zero runs *)
  let ptrs = [ 0; 1; -1; 63; -64; 64; 1000000; -1000000; max_int / 2; min_int / 2; 0; 0 ] in
  let n = mk_vrec ptrs in
  let b = C.to_bytes n in
  Alcotest.(check int) "vrec frames as v5" Page_codec.version_varint
    (Char.code (Bytes.get b 1));
  Alcotest.(check bool) "vrec roundtrip" true (node_eq n (C.of_bytes b));
  (* chained continuation (link, not root) *)
  let n = { (mk_vrec [ 5; 6; 7 ]) with Node.link = Some 99; is_root = false } in
  Alcotest.(check bool) "vrec chained" true (node_eq n (C.of_bytes (C.to_bytes n)))

let test_vrec_compact () =
  (* small ints should take far fewer bytes than the fixed 8 of v2 *)
  let ptrs = List.init 100 (fun i -> i mod 50) in
  let v3 = Bytes.length (C.to_bytes (mk_vrec ptrs)) in
  let v2 = Bytes.length (C.to_bytes (mk ~level:1 [] ptrs)) in
  Alcotest.(check bool)
    (Printf.sprintf "varint frame smaller (%d < %d)" v3 v2)
    true
    (v3 < v2 / 3)

let of_hex h =
  Bytes.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* Frames the v2/v3 codec wrote (FNV-1a-32 body checksums), captured
   from the encoder before v4/v5 existed: a leaf and a version-record
   page. *)
let v2_leaf =
  of_hex
    "b7025d00000076fa1974000000ffffffffffffffff2a00000000000000010500000000000000011e00000000000000030000000a0000000000000014000000000000001e0000000000000003000000010000000000000002000000000000000300000000000000"

let v2_leaf_node =
  mk ~low:(Bound.Key 5) ~high:(Bound.Key 30) ~link:42 [ 10; 20; 30 ] [ 1; 2; 3 ]

let v3_vrec =
  of_hex "b70325000000dedfbad2ffff01ffffffffffffffffffffffffffffffff00020000000005000000000201d804dfc508"

let v3_vrec_node = mk_vrec [ 0; 1; -1; 300; -70000 ]

let test_tree_nodes_frame_v4 () =
  let b = C.to_bytes v2_leaf_node in
  Alcotest.(check int) "tree node frames as v4" Page_codec.version
    (Char.code (Bytes.get b 1));
  Alcotest.(check int) "same length as its v2 frame" (Bytes.length v2_leaf)
    (Bytes.length b);
  Alcotest.(check bool) "v2 still decodes" true (node_eq v2_leaf_node (C.of_bytes v2_leaf))

let test_legacy_frames_decode () =
  Alcotest.(check int) "v2 frame" Page_codec.legacy_version
    (Char.code (Bytes.get v2_leaf 1));
  Alcotest.(check bool) "v2 leaf" true (node_eq v2_leaf_node (C.of_bytes v2_leaf));
  Alcotest.(check (option int)) "v2 frame length" (Some (Bytes.length v2_leaf))
    (Page_codec.frame_length v2_leaf);
  Alcotest.(check int) "v3 frame" Page_codec.legacy_version_varint
    (Char.code (Bytes.get v3_vrec 1));
  Alcotest.(check bool) "v3 vrec" true (node_eq v3_vrec_node (C.of_bytes v3_vrec));
  let v5 = C.to_bytes v3_vrec_node in
  Alcotest.(check int) "vrec now frames as v5" Page_codec.version_varint
    (Char.code (Bytes.get v5 1));
  Alcotest.(check int) "v5 frame as long as v3" (Bytes.length v3_vrec) (Bytes.length v5);
  (* each version is checked with its own hash: relabelling a frame
     with its pair's version breaks the checksum *)
  List.iter
    (fun (what, frame, ver) ->
      let b = Bytes.copy frame in
      Bytes.set_uint8 b 1 ver;
      match C.of_bytes b with
      | exception Page_codec.Corrupt _ -> ()
      | _ -> Alcotest.failf "%s accepted under the other checksum" what)
    [
      ("v2 relabelled v4", v2_leaf, Page_codec.version);
      ("v4 relabelled v2", C.to_bytes v2_leaf_node, Page_codec.legacy_version);
      ("v3 relabelled v5", v3_vrec, Page_codec.version_varint);
    ]

(* A frame whose key or ptr count is forged past the body, with a
   checksum that matches, must fail as Corrupt — not size a 2^31-entry
   allocation. *)
let test_forged_count_rejected () =
  let b = C.to_bytes (mk [] []) in
  let body_len = Bytes.length b - Page_codec.frame_bytes in
  let reseal b =
    Bytes.set_int32_le b 6
      (Int32.of_int
         (Repro_util.Checksum.mx32 b ~pos:Page_codec.frame_bytes ~len:body_len))
  in
  (* body: level 2, flags 1, fwd 8, link 8, two bound tags, nkeys 4, nptrs 4 *)
  let nkeys_off = Page_codec.frame_bytes + 21 in
  List.iter
    (fun (what, off) ->
      let f = Bytes.copy b in
      Bytes.set_int32_le f off 0x7FFFFFFFl;
      reseal f;
      match C.of_bytes f with
      | exception Page_codec.Corrupt _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [ ("forged nkeys", nkeys_off); ("forged nptrs", nkeys_off + 4) ]

let prop_vrec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"vrec varint roundtrip"
    QCheck.(list_of_size Gen.(int_range 0 200) int)
    (fun ptrs ->
      let n = mk_vrec ptrs in
      node_eq n (C.of_bytes (C.to_bytes n)))

let suite =
  [
    Alcotest.test_case "roundtrip leaf" `Quick test_roundtrip_leaf;
    Alcotest.test_case "vrec v3 roundtrip" `Quick test_vrec_roundtrip;
    Alcotest.test_case "vrec v3 compact" `Quick test_vrec_compact;
    Alcotest.test_case "tree nodes frame as v4; v2 decodes" `Quick test_tree_nodes_frame_v4;
    Alcotest.test_case "legacy v2/v3 frames decode" `Quick test_legacy_frames_decode;
    Alcotest.test_case "forged count raises Corrupt" `Quick test_forged_count_rejected;
    QCheck_alcotest.to_alcotest prop_vrec_roundtrip;
    Alcotest.test_case "roundtrip internal" `Quick test_roundtrip_internal;
    Alcotest.test_case "roundtrip root/tombstone" `Quick test_roundtrip_root_and_deleted;
    Alcotest.test_case "roundtrip empty" `Quick test_roundtrip_empty;
    Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
    Alcotest.test_case "frame length from the header" `Quick test_frame_length;
    Alcotest.test_case "string keys" `Quick test_string_keys;
    Alcotest.test_case "multiple nodes in one buffer" `Quick test_multiple_in_buffer;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
