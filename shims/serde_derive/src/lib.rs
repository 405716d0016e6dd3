//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the local serde
//! shim.
//!
//! Implemented without `syn`/`quote`: the item is parsed by walking raw
//! [`proc_macro::TokenTree`]s and the impl is emitted as a source string
//! (`TokenStream: FromStr`). Supported shapes — exactly what the workspace
//! derives on — are:
//!
//! * structs with named fields,
//! * tuple structs (any arity; 1-field newtypes serialize transparently),
//! * enums with unit, tuple, and struct variants,
//!
//! all without generic parameters and without `#[serde(...)]` attributes.
//! Unsupported shapes panic at expansion time with a clear message rather
//! than generating wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Item model
// ---------------------------------------------------------------------------

enum Fields {
    /// Named fields, in declaration order.
    Named(Vec<String>),
    /// Tuple fields: only the count matters.
    Tuple(usize),
    /// No fields at all (`struct Foo;` or a unit variant).
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs_and_vis(&tokens, &mut i);

    let kw = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, got {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic types are not supported (type `{name}`)");
        }
    }

    match kw.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                _ => Fields::Unit,
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde shim derive: malformed enum `{name}`: {other:?}"),
            };
            Item::Enum {
                name,
                variants: parse_variants(body),
            }
        }
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    }
}

/// Advances `i` past any `#[...]` attributes and a `pub` / `pub(...)`
/// visibility prefix.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` then a bracket group.
                *i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => return,
        }
    }
}

/// Field names of a named-field body: `a: T, b: U, ...`.
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        names.push(id.to_string());
        i += 1;
        // Skip `:` and the type, up to the next top-level comma. Commas
        // inside generic args or groups can only appear inside Group
        // token trees or between `<`/`>` puncts, so track angle depth.
        let mut angle = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    names
}

/// Number of fields in a tuple body: `T, U, ...` (angle-aware, like
/// [`parse_named_fields`]).
fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle = 0i32;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => count += 1,
            _ => {}
        }
    }
    // A trailing comma would overcount by one; detect it.
    if let Some(TokenTree::Punct(p)) = tokens.last() {
        if p.as_char() == ',' {
            count -= 1;
        }
    }
    count
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        let name = id.to_string();
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip an optional `= discriminant` and the separating comma.
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------
//
// The generated impls name their parameters `__s` / `__d` and bind
// fields as `__f0, __f1, ...`, so no field name can shadow them.

const OK: &str = "::std::result::Result::Ok";
const SOME: &str = "::std::option::Option::Some";

/// Statements writing `fields`, each reachable as the reference
/// expression `value(index, name)`.
fn write_fields(fields: &Fields, value: impl Fn(usize, &str) -> String) -> String {
    let write =
        |i: usize, name: &str| format!("::serde::Serialize::serialize({}, __s);", value(i, name));
    match fields {
        Fields::Named(names) => {
            let items: String = names
                .iter()
                .enumerate()
                .map(|(i, n)| format!("__s.key(\"{n}\"); {}", write(i, n)))
                .collect();
            format!("__s.begin_object(); {items} __s.end_object();")
        }
        Fields::Tuple(1) => write(0, "0"),
        Fields::Tuple(n) => {
            let items: String = (0..*n)
                .map(|i| format!("__s.element(); {}", write(i, &i.to_string())))
                .collect();
            format!("__s.begin_array(); {items} __s.end_array();")
        }
        Fields::Unit => "__s.null();".to_string(),
    }
}

/// The pattern binding a variant's fields to `__f0, __f1, ...`.
fn bind_fields(path: &str, fields: &Fields) -> String {
    match fields {
        Fields::Named(names) => {
            let binds: Vec<String> = names
                .iter()
                .enumerate()
                .map(|(i, n)| format!("{n}: __f{i}"))
                .collect();
            format!("{path} {{ {} }}", binds.join(", "))
        }
        Fields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
            format!("{path}({})", binds.join(", "))
        }
        Fields::Unit => path.to_string(),
    }
}

fn gen_serialize(item: &Item) -> String {
    let body = match item {
        Item::Struct { fields, .. } => write_fields(fields, |_, name| format!("&self.{name}")),
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let pattern = bind_fields(&format!("{name}::{vn}"), &v.fields);
                    let write = match &v.fields {
                        Fields::Unit => format!("__s.str(\"{vn}\");"),
                        fields => format!(
                            "__s.begin_object(); __s.key(\"{vn}\"); {} __s.end_object();",
                            write_fields(fields, |i, _| format!("__f{i}"))
                        ),
                    };
                    format!("{pattern} => {{ {write} }}\n")
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    let name = item.name();
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, __s: &mut ::serde::Serializer<'_>) {{ {body} }}\n\
         }}"
    )
}

/// An expression reading `fields` and building them with `path`, or
/// returning the error from the enclosing function. A shape with no
/// field to read accepts any one value.
fn read_fields(path: &str, fields: &Fields) -> String {
    let read = "::serde::Deserialize::deserialize(__d)?";
    match fields {
        Fields::Unit => format!("{{ __d.skip_value()?; {path} }}"),
        Fields::Tuple(0) => format!("{{ __d.skip_value()?; {path}() }}"),
        Fields::Named(names) if names.is_empty() => {
            format!("{{ __d.skip_value()?; {path} {{}} }}")
        }
        Fields::Tuple(1) => format!("{path}({read})"),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("{{ __d.element({i})?; {read} }}"))
                .collect();
            format!(
                "{{ __d.begin_array()?; let __v = {path}({}); __d.end_array()?; __v }}",
                items.join(", ")
            )
        }
        Fields::Named(names) => {
            let slots: String = (0..names.len())
                .map(|i| format!("let mut __f{i} = ::std::option::Option::None;"))
                .collect();
            // A repeated key fails its guard and is skipped: the first
            // occurrence wins.
            let arms: String = names
                .iter()
                .enumerate()
                .map(|(i, n)| format!("\"{n}\" if __f{i}.is_none() => __f{i} = {SOME}({read}),\n"))
                .collect();
            let inits: Vec<String> = names
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    format!("{n}: __f{i}.ok_or_else(|| ::serde::Error::missing_field(\"{n}\"))?")
                })
                .collect();
            format!(
                "{{ {slots} __d.begin_object()?;\n\
                 while let {SOME}(__key) = __d.next_key()? {{\n\
                 match &*__key {{ {arms} _ => __d.skip_value()?, }}\n\
                 }}\n\
                 {path} {{ {} }} }}",
                inits.join(", ")
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let body = match item {
        Item::Struct { fields, .. } => format!("{OK}({})", read_fields("Self", fields)),
        Item::Enum { name, variants } => {
            let unknown = format!(
                "::std::result::Result::Err(::serde::Error::unknown_variant(__other, \"{name}\"))"
            );
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.fields, Fields::Unit))
                .map(|v| format!("\"{0}\" => {OK}({name}::{0}),\n", v.name))
                .collect();
            let data_arms: String = variants
                .iter()
                .filter(|v| !matches!(v.fields, Fields::Unit))
                .map(|v| {
                    let read = read_fields(&format!("{name}::{}", v.name), &v.fields);
                    format!("\"{}\" => {read},\n", v.name)
                })
                .collect();
            // Without data variants every tag is unknown; returning early
            // would leave the closing call unreachable.
            let data = if data_arms.is_empty() {
                format!("{{ let __other: &str = &__tag; {unknown} }}")
            } else {
                format!(
                    "{{ let __v = match &*__tag {{ {data_arms} __other => return {unknown}, }};\n\
                     __d.end_variant(\"{name}\")?;\n\
                     {OK}(__v) }}"
                )
            };
            format!(
                "match __d.variant(\"{name}\")? {{\n\
                 ::serde::de::Variant::Unit(__tag) => match &*__tag {{ {unit_arms} __other => {unknown}, }},\n\
                 ::serde::de::Variant::Data(__tag) => {data}\n\
                 }}"
            )
        }
    };
    let name = item.name();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__d: &mut ::serde::Deserializer<'_>) -> \
         ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
         }}"
    )
}

impl Item {
    fn name(&self) -> &str {
        match self {
            Item::Struct { name, .. } | Item::Enum { name, .. } => name,
        }
    }
}
