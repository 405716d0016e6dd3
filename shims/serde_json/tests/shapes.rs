//! The JSON text of every shape the derives support, pinned literally,
//! plus the rules the reader applies to input it did not write.
//!
//! Artifact digests hash these bytes, so a change to the writer shows
//! up here as a text diff before it shows up as a digest drift.

use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, to_string_pretty, to_writer_pretty};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u32,
    name: String,
    tags: Vec<String>,
    parent: Option<u64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(u16);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(i8, bool);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Circle(u32),
    Line(i32, i32),
    Rect { w: u8, h: u8 },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Floats {
    a: f64,
    b: f32,
}

fn named() -> Named {
    Named {
        id: 7,
        name: "n".into(),
        tags: vec!["x".into(), "y".into()],
        parent: None,
    }
}

#[test]
fn named_structs_write_objects_in_field_order() {
    assert_eq!(
        to_string(&named()).unwrap(),
        r#"{"id":7,"name":"n","tags":["x","y"],"parent":null}"#
    );
    assert_eq!(
        to_string_pretty(&named()).unwrap(),
        "{\n  \"id\": 7,\n  \"name\": \"n\",\n  \"tags\": [\n    \"x\",\n    \"y\"\n  ],\n  \"parent\": null\n}"
    );
    assert_eq!(to_string(&Empty {}).unwrap(), "{}");
    assert_eq!(to_string_pretty(&Empty {}).unwrap(), "{}");
    let back: Named = from_str(&to_string_pretty(&named()).unwrap()).unwrap();
    assert_eq!(back, named());
}

#[test]
fn newtypes_are_transparent_and_tuple_structs_are_arrays() {
    assert_eq!(to_string(&Newtype(9)).unwrap(), "9");
    assert_eq!(to_string(&Pair(-3, true)).unwrap(), "[-3,true]");
    assert_eq!(
        to_string_pretty(&Pair(-3, true)).unwrap(),
        "[\n  -3,\n  true\n]"
    );
    assert_eq!(from_str::<Newtype>(" 9 ").unwrap(), Newtype(9));
    assert_eq!(from_str::<Pair>("[-3,true]").unwrap(), Pair(-3, true));
    // A tuple ignores extra elements but needs every field.
    assert_eq!(
        from_str::<Pair>("[-3,true,\"extra\",[1]]").unwrap(),
        Pair(-3, true)
    );
    let err = from_str::<Pair>("[-3]").unwrap_err();
    assert_eq!(err.to_string(), "invalid length, no element 1");
}

#[test]
fn enum_variants_are_externally_tagged() {
    let cases = [
        (Shape::Dot, r#""Dot""#, "\"Dot\""),
        (Shape::Circle(5), r#"{"Circle":5}"#, "{\n  \"Circle\": 5\n}"),
        (
            Shape::Line(-1, 2),
            r#"{"Line":[-1,2]}"#,
            "{\n  \"Line\": [\n    -1,\n    2\n  ]\n}",
        ),
        (
            Shape::Rect { w: 3, h: 4 },
            r#"{"Rect":{"w":3,"h":4}}"#,
            "{\n  \"Rect\": {\n    \"w\": 3,\n    \"h\": 4\n  }\n}",
        ),
    ];
    for (shape, compact, pretty) in cases {
        assert_eq!(to_string(&shape).unwrap(), compact);
        assert_eq!(to_string_pretty(&shape).unwrap(), pretty);
        assert_eq!(from_str::<Shape>(compact).unwrap(), shape);
        assert_eq!(from_str::<Shape>(pretty).unwrap(), shape);
    }
    for bad in [
        r#""Circle""#,
        r#"{"Dot":null}"#,
        r#""Hexagon""#,
        r#"{"Hexagon":1}"#,
        r#"{}"#,
        r#"{"Circle":5,"Dot":null}"#,
        r#"{"Circle":5,"Circle":5}"#,
        r#"["Dot"]"#,
        "null",
        "3",
    ] {
        assert!(from_str::<Shape>(bad).is_err(), "{bad}");
    }
    // A tuple variant ignores extra elements; a struct variant skips
    // unknown keys and takes the first of a repeated key.
    assert_eq!(
        from_str::<Shape>(r#"{"Line":[-1,2,3]}"#).unwrap(),
        Shape::Line(-1, 2)
    );
    assert_eq!(
        from_str::<Shape>(r#"{"Rect":{"h":4,"d":[{}],"w":3,"w":"x"}}"#).unwrap(),
        Shape::Rect { w: 3, h: 4 }
    );
}

#[test]
fn options_vecs_tuples_and_arrays() {
    assert_eq!(to_string(&Some(3u8)).unwrap(), "3");
    assert_eq!(to_string(&None::<u8>).unwrap(), "null");
    assert_eq!(from_str::<Option<u8>>("null").unwrap(), None);
    assert_eq!(from_str::<Option<u8>>("3").unwrap(), Some(3));
    assert!(from_str::<Option<u8>>("nul").is_err());
    assert_eq!(to_string(&Vec::<u8>::new()).unwrap(), "[]");
    assert_eq!(to_string_pretty(&Vec::<u8>::new()).unwrap(), "[]");
    assert_eq!(
        to_string_pretty(&vec![vec![1u8], vec![]]).unwrap(),
        "[\n  [\n    1\n  ],\n  []\n]"
    );
    assert_eq!(
        to_string(&(1u8, "a", (true,))).unwrap(),
        r#"[1,"a",[true]]"#
    );
    assert_eq!(
        from_str::<(u8, String, (bool,))>(r#"[1,"a",[true,false]]"#).unwrap(),
        (1, "a".to_string(), (true,))
    );
    assert_eq!(to_string(&[1u8, 2, 3]).unwrap(), "[1,2,3]");
    assert_eq!(from_str::<[u8; 3]>("[1,2,3]").unwrap(), [1, 2, 3]);
    for (doc, len) in [("[1,2]", 2), ("[1,2,3,4]", 4), ("[]", 0)] {
        assert_eq!(
            from_str::<[u8; 3]>(doc).unwrap_err().to_string(),
            format!("expected array of length 3, got {len}")
        );
    }
    for bad in ["[1,]", "[,1]", "[1 2]", "[", "]", "[1]]"] {
        assert!(from_str::<Vec<u8>>(bad).is_err(), "{bad}");
    }
}

#[test]
fn integers_hold_their_bounds() {
    assert_eq!(to_string(&u8::MAX).unwrap(), "255");
    assert_eq!(to_string(&u16::MAX).unwrap(), "65535");
    assert_eq!(to_string(&u32::MAX).unwrap(), "4294967295");
    assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    assert_eq!(
        to_string(&u128::MAX).unwrap(),
        "340282366920938463463374607431768211455"
    );
    assert_eq!(
        to_string(&i128::MIN).unwrap(),
        "-170141183460469231731687303715884105728"
    );
    assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
    assert_eq!(to_string(&usize::MIN).unwrap(), "0");
    assert_eq!(to_string(&-1isize).unwrap(), "-1");

    assert_eq!(from_str::<u8>("255").unwrap(), 255);
    assert_eq!(
        from_str::<u8>("256").unwrap_err().to_string(),
        "out of range for u8"
    );
    assert_eq!(
        from_str::<u8>("-1").unwrap_err().to_string(),
        "out of range for u8"
    );
    assert_eq!(from_str::<u8>("-0").unwrap(), 0);
    assert_eq!(from_str::<u16>("65535").unwrap(), u16::MAX);
    assert!(from_str::<u16>("65536").is_err());
    assert_eq!(from_str::<u32>("4294967295").unwrap(), u32::MAX);
    assert!(from_str::<u32>("4294967296").is_err());
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert!(from_str::<u64>("18446744073709551616").is_err());
    assert_eq!(
        from_str::<u128>("340282366920938463463374607431768211455").unwrap(),
        u128::MAX
    );
    assert!(from_str::<u128>("340282366920938463463374607431768211456").is_err());
    assert_eq!(
        from_str::<i128>("-170141183460469231731687303715884105728").unwrap(),
        i128::MIN
    );
    assert_eq!(
        from_str::<i128>("170141183460469231731687303715884105727").unwrap(),
        i128::MAX
    );
    assert!(from_str::<i128>("170141183460469231731687303715884105728").is_err());
    assert!(from_str::<i128>("-170141183460469231731687303715884105729").is_err());
    assert_eq!(from_str::<i8>("-128").unwrap(), i8::MIN);
    assert!(from_str::<i8>("128").is_err());
    assert_eq!(from_str::<u64>("007").unwrap(), 7);
    for bad in ["1.0", "1e3", "\"1\"", "true", "null", "-", "[1]"] {
        assert!(from_str::<u64>(bad).is_err(), "{bad}");
    }
}

#[test]
fn floats_keep_a_fraction_accept_integers_and_write_nan_as_null() {
    let f = Floats { a: 3.0, b: 0.5 };
    assert_eq!(to_string(&f).unwrap(), r#"{"a":3.0,"b":0.5}"#);
    assert_eq!(to_string(&0.1f32).unwrap(), "0.10000000149011612");
    assert_eq!(
        to_string(&1e300f64).unwrap(),
        format!("1{}.0", "0".repeat(300))
    );
    assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    assert_eq!(to_string(&f64::NEG_INFINITY).unwrap(), "null");
    assert_eq!(
        from_str::<Floats>(r#"{"a":3,"b":-2}"#).unwrap(),
        Floats { a: 3.0, b: -2.0 }
    );
    assert_eq!(from_str::<f64>("1e3").unwrap(), 1000.0);
    assert_eq!(from_str::<f64>("2.5E-1").unwrap(), 0.25);
    assert!(from_str::<f64>("null").is_err());
    assert!(from_str::<f64>("1e").is_err());
    assert!(from_str::<f64>("\"1\"").is_err());
}

#[test]
fn escapes_in_keys_and_values() {
    let n = Named {
        id: 1,
        name: "q\"b\\s/\n\r\t\u{1}\u{1f}\u{7f}é😀".into(),
        tags: vec![],
        parent: Some(2),
    };
    let compact = to_string(&n).unwrap();
    assert_eq!(
        compact,
        "{\"id\":1,\"name\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f}é😀\",\"tags\":[],\"parent\":2}"
    );
    assert_eq!(from_str::<Named>(&compact).unwrap(), n);
    // Keys and enum tags are compared after their escapes decode.
    let escaped = r#"{"\u0069d":1,"id":2,"n\u0061me":"é\/\b\f","tags":[],"parent":null}"#;
    let back: Named = from_str(escaped).unwrap();
    assert_eq!(back.id, 1);
    assert_eq!(back.name, "é/\u{8}\u{c}");
    assert_eq!(
        from_str::<Shape>(r#"{"\u0043ircle":1}"#).unwrap(),
        Shape::Circle(1)
    );
    assert_eq!(from_str::<Shape>(r#""D\u006ft""#).unwrap(), Shape::Dot);
    for bad in [r#""\q""#, r#""\u00""#, r#""\ud800""#, r#""abc"#, r#""\"#] {
        assert!(from_str::<String>(bad).is_err(), "{bad}");
    }
}

#[test]
fn objects_skip_unknown_keys_take_the_first_repeat_and_need_every_field() {
    let doc = r#" { "zz" : {"a":[1,{"b":null}],"c":"A"} , "id":1,"name":"a","id":"not a number",
        "tags":["t"],"parent":5,"more":[true,false,-1.5e3] } "#;
    assert_eq!(
        from_str::<Named>(doc).unwrap(),
        Named {
            id: 1,
            name: "a".into(),
            tags: vec!["t".into()],
            parent: Some(5),
        }
    );
    // A missing field is an error even when its type is an `Option`.
    let err = from_str::<Named>(r#"{"id":1,"name":"a","tags":[]}"#).unwrap_err();
    assert_eq!(err.to_string(), "missing field `parent`");
    // A skipped value is still checked as JSON.
    for bad in [
        r#"{"zz":[1,],"id":1,"name":"a","tags":[],"parent":null}"#,
        r#"{"zz":tru,"id":1,"name":"a","tags":[],"parent":null}"#,
        r#"{"zz":1e,"id":1,"name":"a","tags":[],"parent":null}"#,
        r#"{"zz":"\x","id":1,"name":"a","tags":[],"parent":null}"#,
        r#"{"zz":340282366920938463463374607431768211456,"id":1,"name":"a","tags":[],"parent":null}"#,
        r#"{"id":1,"name":"a","tags":[],"parent":null,}"#,
        r#"{"id":1,"name":"a","tags":[],"parent":null} x"#,
        r#"{"id":1 "name":"a","tags":[],"parent":null}"#,
        r#"{"id" 1,"name":"a","tags":[],"parent":null}"#,
        r#"{id:1,"name":"a","tags":[],"parent":null}"#,
    ] {
        assert!(from_str::<Named>(bad).is_err(), "{bad}");
    }
    // A struct with no fields reads nothing, so any value will do.
    for any in [r#"{"a":1,"b":[{}]}"#, "[]", "null"] {
        assert_eq!(from_str::<Empty>(any).unwrap(), Empty {});
    }
    assert!(from_str::<Empty>("[").is_err());
}

#[test]
fn to_writer_pretty_writes_the_pretty_bytes() {
    let v = vec![named(); 300];
    let mut out = Vec::new();
    to_writer_pretty(&mut out, &v).unwrap();
    assert_eq!(
        String::from_utf8(out).unwrap(),
        to_string_pretty(&v).unwrap()
    );
}
