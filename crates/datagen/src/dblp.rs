//! Synthetic DBLP-like bibliography data (scenarios D1–D5, Table 4 / Table 10).
//!
//! The generator plants one "protagonist" fact per scenario (a missing paper,
//! author, editor, or homepage) and surrounds it with `scale` filler records.
//! The structural quirks the paper relies on are reproduced:
//!
//! * `title.bibtex` is null for almost all records (> 99 % in real DBLP),
//!   while `title.text` is always present (scenario D2),
//! * proceedings store the conference acronym in `booktitle` and the
//!   written-out name in `title` (scenario D1),
//! * the planted author's ACM papers carry "ACM" in `series`, not in
//!   `publisher` (scenario D4),
//! * homepage URLs are stored in the `note` collection, not in `url`
//!   (scenario D5).

use std::sync::Arc;

use nested_data::{Bag, NestedType, Shape, TupleType, Value};
use nrab_algebra::Database;
use whynot_rng::Rng;

use crate::row_rng;

/// Configuration of the DBLP generator.
#[derive(Debug, Clone, Copy)]
pub struct DblpConfig {
    /// Number of filler inproceedings/records per relation.
    pub scale: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig { scale: 200, seed: 7 }
    }
}

/// The shapes of the generated tuples, one per relation schema and nested
/// tuple type, shared by every tuple built with it.
struct Shapes {
    proceedings: Arc<Shape>,
    inproceedings: Arc<Shape>,
    records: Arc<Shape>,
    homepages: Arc<Shape>,
    title: Arc<Shape>,
    name: Arc<Shape>,
    ref_key: Arc<Shape>,
    value: Arc<Shape>,
}

impl Shapes {
    fn new() -> Shapes {
        Shapes {
            proceedings: Shape::new(["key", "title", "booktitle", "year", "publisher", "series"]),
            inproceedings: Shape::new(["key", "title", "author", "crossref", "year"]),
            records: Shape::new(["author", "editor", "title", "booktitle", "year"]),
            homepages: Shape::new(["author", "url", "note"]),
            title: Shape::new(["text", "bibtex"]),
            name: Shape::new(["name"]),
            ref_key: Shape::new(["ref_key"]),
            value: Shape::new(["value"]),
        }
    }

    fn title(&self, text: &str, bibtex: Option<&str>) -> Value {
        self.title.value([
            ("text", Value::str(text)),
            ("bibtex", bibtex.map(Value::str).unwrap_or(Value::Null)),
        ])
    }

    fn name_bag(&self, names: &[&str]) -> Value {
        Value::bag(names.iter().map(|n| self.name.value([("name", Value::str(*n))])))
    }

    fn ref_bag(&self, keys: &[&str]) -> Value {
        Value::bag(keys.iter().map(|k| self.ref_key.value([("ref_key", Value::str(*k))])))
    }

    fn value(&self, v: &str) -> Value {
        self.value.value([("value", Value::str(v))])
    }
}

/// Planted names used by the DBLP scenarios and their gold standards.
pub mod planted {
    /// The SIGMOD paper whose title is asked for in D1.
    pub const D1_PAPER: &str = "Provenance for Nested Data";
    /// The SIGMOD proceedings acronym (stored in `booktitle`).
    pub const D1_BOOKTITLE: &str = "SIGMOD";
    /// The written-out proceedings title (stored in `title`).
    pub const D1_PROC_TITLE: &str =
        "Proceedings of the International Conference on Management of Data";
    /// The author with at least five articles asked for in D2.
    pub const D2_AUTHOR: &str = "Ben Ortiz";
    /// The editor asked for in D3.
    pub const D3_EDITOR: &str = "Carla Jensen";
    /// D3's booktitle and year.
    pub const D3_BOOKTITLE: &str = "VLDB";
    /// D3's year.
    pub const D3_YEAR: i64 = 2012;
    /// The ACM author asked for in D4.
    pub const D4_AUTHOR: &str = "Derek Olson";
    /// The author with a homepage asked for in D5.
    pub const D5_AUTHOR: &str = "Elena Fisher";
    /// D5's homepage URL (stored in the `note` collection).
    pub const D5_URL: &str = "https://elena-fisher.example.org";
}

/// Builds the DBLP database with the relations used by scenarios D1–D5.
///
/// Each filler record derives its RNG from its index; the planted scenario
/// facts are inserted afterwards.
pub fn dblp_database(config: DblpConfig) -> Database {
    let mut db = Database::new();
    let shapes = Shapes::new();

    // --- proceedings (P): key, title (written out), booktitle (acronym), year,
    //     publisher ⟨value⟩, series ⟨value⟩ --------------------------------
    let proceedings_ty = TupleType::new([
        ("key", NestedType::str()),
        ("title", NestedType::str()),
        ("booktitle", NestedType::str()),
        ("year", NestedType::int()),
        ("publisher", NestedType::tuple_of([("value", NestedType::str())]).unwrap()),
        ("series", NestedType::tuple_of([("value", NestedType::str())]).unwrap()),
    ])
    .unwrap();
    let venues = ["VLDB", "ICDE", "EDBT", "CIKM"];
    let mut proceedings = Bag::from_values((0..config.scale).map(|i| {
        let venue = venues[i % venues.len()];
        shapes.proceedings.value([
            ("key", Value::str(format!("conf/{venue}/{i}"))),
            ("title", Value::str(format!("Proceedings of the {venue} Conference {i}"))),
            ("booktitle", Value::str(venue)),
            ("year", Value::int(2000 + (i % 20) as i64)),
            ("publisher", shapes.value(if i % 3 == 0 { "Springer" } else { "IEEE" })),
            ("series", shapes.value("LNCS")),
        ])
    }));
    // D1: the SIGMOD proceedings (acronym only in booktitle).
    proceedings.insert(
        shapes.proceedings.value([
            ("key", Value::str("conf/sigmod/2020")),
            ("title", Value::str(planted::D1_PROC_TITLE)),
            ("booktitle", Value::str(planted::D1_BOOKTITLE)),
            ("year", Value::int(2020)),
            ("publisher", shapes.value("ACM Press")),
            ("series", shapes.value("SIGMOD Series")),
        ]),
        1,
    );
    // D4: the planted author's proceedings — "ACM" only in `series`, year 2010.
    proceedings.insert(
        shapes.proceedings.value([
            ("key", Value::str("conf/acm/2010")),
            ("title", Value::str("Proceedings of the ACM Symposium 2010")),
            ("booktitle", Value::str("ACMSYMP")),
            ("year", Value::int(2010)),
            ("publisher", shapes.value("Springer")),
            ("series", shapes.value("ACM")),
        ]),
        1,
    );
    // D4: a 2015 proceedings that is *not* published through ACM.
    proceedings.insert(
        shapes.proceedings.value([
            ("key", Value::str("conf/ieee/2015")),
            ("title", Value::str("Proceedings of the IEEE Workshop 2015")),
            ("booktitle", Value::str("IEEEW")),
            ("year", Value::int(2015)),
            ("publisher", shapes.value("IEEE")),
            ("series", shapes.value("IEEE Series")),
        ]),
        1,
    );
    db.add_relation("proceedings", proceedings_ty, proceedings);

    // --- inproceedings (I): key, title ⟨text, bibtex⟩, author {{⟨name⟩}},
    //     crossref {{⟨ref_key⟩}}, year --------------------------------------
    let inproceedings_ty = TupleType::new([
        ("key", NestedType::str()),
        (
            "title",
            NestedType::tuple_of([("text", NestedType::str()), ("bibtex", NestedType::str())])
                .unwrap(),
        ),
        ("author", NestedType::relation_of([("name", NestedType::str())]).unwrap()),
        ("crossref", NestedType::relation_of([("ref_key", NestedType::str())]).unwrap()),
        ("year", NestedType::int()),
    ])
    .unwrap();
    let filler_authors = ["Alice Shaw", "Bob Liu", "Chao Dey", "Dana Cruz", "Erik Holm"];
    let mut inproceedings = Bag::from_values((0..config.scale).map(|i| {
        let venue = venues[i % venues.len()];
        let mut rng = row_rng(config.seed, 1, i as u64);
        let bibtex = if rng.gen_range(0..200) == 0 { Some("@inproceedings{...}") } else { None };
        shapes.inproceedings.value([
            ("key", Value::str(format!("conf/{venue}/paper{i}"))),
            ("title", shapes.title(&format!("A Study of Topic {i}"), bibtex)),
            ("author", shapes.name_bag(&[filler_authors[i % filler_authors.len()]])),
            ("crossref", shapes.ref_bag(&[&format!("conf/{venue}/{i}")])),
            ("year", Value::int(2000 + (i % 20) as i64)),
        ])
    }));
    // D1: the missing SIGMOD paper.
    inproceedings.insert(
        shapes.inproceedings.value([
            ("key", Value::str("conf/sigmod/2020/p42")),
            ("title", shapes.title(planted::D1_PAPER, None)),
            ("author", shapes.name_bag(&["Frank Moore", "Grace Kim"])),
            ("crossref", shapes.ref_bag(&["conf/sigmod/2020"])),
            ("year", Value::int(2020)),
        ]),
        1,
    );
    // D4: the planted author's papers — crossrefs to the ACM-series 2010
    // proceedings plus one paper at the non-ACM 2015 workshop.
    for p in 0..3 {
        inproceedings.insert(
            shapes.inproceedings.value([
                ("key", Value::str(format!("conf/acm/2010/p{p}"))),
                ("title", shapes.title(&format!("Nested Provenance Techniques {p}"), None)),
                ("author", shapes.name_bag(&[planted::D4_AUTHOR])),
                ("crossref", shapes.ref_bag(&["conf/acm/2010"])),
                ("year", Value::int(2010)),
            ]),
            1,
        );
    }
    inproceedings.insert(
        shapes.inproceedings.value([
            ("key", Value::str("conf/ieee/2015/p1")),
            ("title", shapes.title("A Workshop Note", None)),
            ("author", shapes.name_bag(&[planted::D4_AUTHOR])),
            ("crossref", shapes.ref_bag(&["conf/ieee/2015"])),
            ("year", Value::int(2015)),
        ]),
        1,
    );
    db.add_relation("inproceedings", inproceedings_ty.clone(), inproceedings.clone());

    // --- authored (A): one record per publication, used by D2 -------------
    let mut authored = Bag::new();
    for (value, mult) in inproceedings.iter() {
        // Reuse the inproceedings rows: the D2 query only needs author + title.
        authored.insert(value.clone(), *mult);
    }
    // D2: the planted author with six articles, all of which lack a bibtex title.
    for p in 0..6 {
        authored.insert(
            shapes.inproceedings.value([
                ("key", Value::str(format!("journals/tods/ortiz{p}"))),
                ("title", shapes.title(&format!("Answering Why-Not Questions, Part {p}"), None)),
                ("author", shapes.name_bag(&[planted::D2_AUTHOR])),
                ("crossref", shapes.ref_bag(&[])),
                ("year", Value::int(2015 + p as i64)),
            ]),
            1,
        );
    }
    db.add_relation("authored", inproceedings_ty, authored);

    // --- records: flat author/editor records, used by D3 -------------------
    let records_ty = TupleType::new([
        ("author", NestedType::str()),
        ("editor", NestedType::str()),
        ("title", NestedType::str()),
        ("booktitle", NestedType::str()),
        ("year", NestedType::int()),
    ])
    .unwrap();
    let mut records = Bag::from_values((0..config.scale).map(|i| {
        let venue = venues[i % venues.len()];
        shapes.records.value([
            ("author", Value::str(filler_authors[i % filler_authors.len()])),
            ("editor", Value::str("Harold Editor")),
            ("title", Value::str(format!("A Study of Topic {i}"))),
            ("booktitle", Value::str(venue)),
            ("year", Value::int(2000 + (i % 20) as i64)),
        ])
    }));
    // D3: the planted person edited (but did not author) a VLDB 2012 volume.
    records.insert(
        shapes.records.value([
            ("author", Value::str("Ivan Petrov")),
            ("editor", Value::str(planted::D3_EDITOR)),
            ("title", Value::str("Advanced Query Processing")),
            ("booktitle", Value::str(planted::D3_BOOKTITLE)),
            ("year", Value::int(planted::D3_YEAR)),
        ]),
        1,
    );
    db.add_relation("records", records_ty, records);

    // --- homepages (U): author {{⟨name⟩}}, url {{⟨value⟩}}, note {{⟨value⟩}} -
    let homepages_ty = TupleType::new([
        ("author", NestedType::relation_of([("name", NestedType::str())]).unwrap()),
        ("url", NestedType::relation_of([("value", NestedType::str())]).unwrap()),
        ("note", NestedType::relation_of([("value", NestedType::str())]).unwrap()),
    ])
    .unwrap();
    let mut homepages = Bag::from_values((0..config.scale).map(|i| {
        shapes.homepages.value([
            ("author", shapes.name_bag(&[filler_authors[i % filler_authors.len()]])),
            ("url", Value::bag([shapes.value(&format!("https://example.org/{i}"))])),
            ("note", Value::bag([])),
        ])
    }));
    // D5: the planted author's homepage lives in `note`; `url` is empty.
    homepages.insert(
        shapes.homepages.value([
            ("author", shapes.name_bag(&[planted::D5_AUTHOR])),
            ("url", Value::bag([])),
            ("note", Value::bag([shapes.value(planted::D5_URL)])),
        ]),
        1,
    );
    db.add_relation("homepages", homepages_ty, homepages);

    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relations_and_planted_facts_exist() {
        let db = dblp_database(DblpConfig { scale: 50, seed: 1 });
        for relation in ["proceedings", "inproceedings", "authored", "records", "homepages"] {
            assert!(db.contains(relation), "missing relation {relation}");
            assert!(db.relation(relation).unwrap().total() > 0);
        }
        // D1: the SIGMOD proceedings acronym is only in booktitle.
        let proc_titles = db.active_domain("proceedings", "booktitle").unwrap();
        assert!(proc_titles.contains(&Value::str("SIGMOD")));
        let titles = db.active_domain("proceedings", "title").unwrap();
        assert!(!titles.contains(&Value::str("SIGMOD")));
        // D2: the planted author has six articles.
        let authors = db.active_domain("authored", "author").unwrap();
        assert!(authors.contains(&Value::str(planted::D2_AUTHOR)));
        // D5: the homepage URL is only in `note`.
        let urls = db.active_domain("homepages", "url").unwrap();
        assert!(!urls.contains(&Value::str(planted::D5_URL)));
        let notes = db.active_domain("homepages", "note").unwrap();
        assert!(notes.contains(&Value::str(planted::D5_URL)));
    }

    #[test]
    fn each_relation_shares_one_shape() {
        let db = dblp_database(DblpConfig { scale: 50, seed: 1 });
        for relation in ["proceedings", "inproceedings", "authored", "records", "homepages"] {
            let tuples: Vec<_> =
                db.relation(relation).unwrap().iter().map(|(v, _)| v.as_tuple().unwrap()).collect();
            assert!(
                tuples.iter().all(|t| Arc::ptr_eq(t.shape(), tuples[0].shape())),
                "{relation} has more than one shape"
            );
        }
        // Nested tuples of one type share a shape too.
        let titles: Vec<_> = db
            .relation("inproceedings")
            .unwrap()
            .iter()
            .map(|(v, _)| v.as_tuple().unwrap().get("title").unwrap().as_tuple().unwrap().clone())
            .collect();
        assert!(titles.iter().all(|t| Arc::ptr_eq(t.shape(), titles[0].shape())));
    }

    #[test]
    fn generation_is_deterministic_and_scales() {
        let a = dblp_database(DblpConfig { scale: 30, seed: 3 });
        let b = dblp_database(DblpConfig { scale: 30, seed: 3 });
        assert_eq!(a.total_tuples(), b.total_tuples());
        let large = dblp_database(DblpConfig { scale: 120, seed: 3 });
        assert!(large.total_tuples() > a.total_tuples());
    }

    #[test]
    fn bibtex_titles_are_mostly_null() {
        let db = dblp_database(DblpConfig { scale: 300, seed: 5 });
        let bag = db.relation("authored").unwrap();
        let with_bibtex = bag
            .iter()
            .filter(|(v, _)| {
                !v.get_path(&"title.bibtex".into()).map(|x| x.is_null()).unwrap_or(true)
            })
            .count();
        assert!(with_bibtex * 10 < bag.distinct(), "bibtex should be rare: {with_bibtex}");
    }
}
