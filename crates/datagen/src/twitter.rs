//! Synthetic Twitter-like data (scenarios T1–T4 and T_ASD, Table 5 / Table 10).

use std::sync::Arc;

use nested_data::{Bag, NestedType, Shape, TupleType, Value};
use nrab_algebra::Database;
use whynot_rng::Rng;

use crate::row_rng;

/// Configuration of the Twitter generator.
#[derive(Debug, Clone, Copy)]
pub struct TwitterConfig {
    /// Number of filler tweets.
    pub scale: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TwitterConfig {
    fn default() -> Self {
        TwitterConfig { scale: 300, seed: 11 }
    }
}

/// Planted facts used by the Twitter scenarios.
pub mod planted {
    /// T1: the missing tweet's text (about LeBron James, not Michael Jordan).
    pub const T1_TEXT: &str = "LeBron James with an incredible game tonight";
    /// T1: the media URL of the missing tweet (stored in entities.urls).
    pub const T1_URL: &str = "https://pic.example.com/lebron.jpg";
    /// T2: the known US-based BTS fan.
    pub const T2_USER: &str = "bts_fan_holly";
    /// T3: the mentioned user whose media are missing.
    pub const T3_USER: &str = "nested_data_nerd";
    /// T3: the hashtag of the mentioning tweet.
    pub const T3_HASHTAG: &str = "provenance";
    /// T4: the English soccer club expected among the UEFA hashtags.
    pub const T4_HASHTAG: &str = "LiverpoolFC";
    /// T_ASD: the text of the famous missing retweet.
    pub const TASD_TEXT: &str = "One small step for provenance";
}

/// The tweet tuple type.
pub fn tweet_type() -> TupleType {
    let media = NestedType::relation_of([("url", NestedType::str())]).unwrap();
    let urls = NestedType::relation_of([("url", NestedType::str())]).unwrap();
    let hashtags = NestedType::relation_of([("text", NestedType::str())]).unwrap();
    let mentioned =
        NestedType::relation_of([("id", NestedType::int()), ("name", NestedType::str())]).unwrap();
    TupleType::new([
        ("id", NestedType::int()),
        ("text", NestedType::str()),
        (
            "entities",
            NestedType::tuple_of([
                ("hashtags", hashtags),
                ("media", media),
                ("urls", urls),
                ("mentioned_user", mentioned),
            ])
            .unwrap(),
        ),
        ("place", NestedType::tuple_of([("country", NestedType::str())]).unwrap()),
        (
            "user",
            NestedType::tuple_of([
                ("id", NestedType::int()),
                ("name", NestedType::str()),
                ("location", NestedType::str()),
                ("lang", NestedType::str()),
                ("followers_count", NestedType::int()),
            ])
            .unwrap(),
        ),
        (
            "retweet_status",
            NestedType::tuple_of([
                ("id", NestedType::int()),
                ("text", NestedType::str()),
                ("count", NestedType::int()),
            ])
            .unwrap(),
        ),
        (
            "quoted_status",
            NestedType::tuple_of([
                ("id", NestedType::int()),
                ("text", NestedType::str()),
                ("count", NestedType::int()),
            ])
            .unwrap(),
        ),
    ])
    .unwrap()
}

/// The shapes of the generated tuples, one per relation schema and nested
/// tuple type, shared by every tuple built with it.
struct Shapes {
    tweet: Arc<Shape>,
    status: Arc<Shape>,
    entities: Arc<Shape>,
    text: Arc<Shape>,
    url: Arc<Shape>,
    mention: Arc<Shape>,
    place: Arc<Shape>,
    user: Arc<Shape>,
}

impl Shapes {
    fn new() -> Shapes {
        Shapes {
            tweet: Shape::new([
                "id",
                "text",
                "entities",
                "place",
                "user",
                "retweet_status",
                "quoted_status",
            ]),
            status: Shape::new(["id", "text", "count"]),
            entities: Shape::new(["hashtags", "media", "urls", "mentioned_user"]),
            text: Shape::new(["text"]),
            url: Shape::new(["url"]),
            mention: Shape::new(["id", "name"]),
            place: Shape::new(["country"]),
            user: Shape::new(["id", "name", "location", "lang", "followers_count"]),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn tweet(
    shapes: &Shapes,
    id: i64,
    text: &str,
    hashtags: &[&str],
    media: &[&str],
    urls: &[&str],
    mentioned: &[(i64, &str)],
    country: Option<&str>,
    user: (i64, &str, &str),
    retweet: Option<(&str, i64)>,
    quoted: Option<(&str, i64)>,
) -> Value {
    let status = |s: Option<(&str, i64)>| match s {
        Some((text, count)) => shapes.status.value([
            ("id", Value::int(id * 10)),
            ("text", Value::str(text)),
            ("count", Value::int(count)),
        ]),
        None => Value::Null,
    };
    let url = |u: &&str| shapes.url.value([("url", Value::str(*u))]);
    shapes.tweet.value([
        ("id", Value::int(id)),
        ("text", Value::str(text)),
        (
            "entities",
            shapes.entities.value([
                (
                    "hashtags",
                    Value::bag(
                        hashtags.iter().map(|h| shapes.text.value([("text", Value::str(*h))])),
                    ),
                ),
                ("media", Value::bag(media.iter().map(url))),
                ("urls", Value::bag(urls.iter().map(url))),
                (
                    "mentioned_user",
                    Value::bag(mentioned.iter().map(|(mid, name)| {
                        shapes
                            .mention
                            .value([("id", Value::int(*mid)), ("name", Value::str(*name))])
                    })),
                ),
            ]),
        ),
        (
            "place",
            shapes.place.value([("country", country.map(Value::str).unwrap_or(Value::Null))]),
        ),
        (
            "user",
            shapes.user.value([
                ("id", Value::int(user.0)),
                ("name", Value::str(user.1)),
                ("location", Value::str(user.2)),
                ("lang", Value::str("en")),
                ("followers_count", Value::int(1000 + id % 500)),
            ]),
        ),
        ("retweet_status", status(retweet)),
        ("quoted_status", status(quoted)),
    ])
}

/// Builds the Twitter database (single `tweets` relation). Filler tweets are
/// generated with per-index RNGs; the planted scenario tweets are inserted
/// afterwards.
pub fn twitter_database(config: TwitterConfig) -> Database {
    let shapes = Shapes::new();
    let topics = ["coffee", "rustlang", "databases", "UEFA final tonight", "music"];
    let countries = ["Germany", "France", "Brazil", "Japan"];
    let mut tweets = Bag::from_values((0..config.scale).map(|i| {
        let topic = topics[i % topics.len()];
        let country = countries[i % countries.len()];
        let has_media = row_rng(config.seed, 0, i as u64).gen_bool(0.4);
        tweet(
            &shapes,
            i as i64,
            &format!("tweet about {topic} number {i}"),
            &[topics[i % topics.len()]],
            if has_media { &["https://pic.example.com/x.jpg"] } else { &[] },
            &[],
            &[],
            Some(country),
            (100 + (i % 50) as i64, &format!("user{}", i % 50), country),
            None,
            None,
        )
    }));

    // T1: the missing tweet about LeBron James — the picture URL sits in
    // entities.urls, entities.media is empty.
    tweets.insert(
        tweet(
            &shapes,
            1_000_001,
            planted::T1_TEXT,
            &["NBA"],
            &[],
            &[planted::T1_URL],
            &[],
            Some("United States"),
            (900, "hoops_daily", "United States"),
            None,
            None,
        ),
        1,
    );
    // T2: the known US fan tweeted about BTS, but place.country is null; the
    // country is only in user.location.
    tweets.insert(
        tweet(
            &shapes,
            1_000_002,
            "BTS dropped a new album and it is amazing",
            &["BTS"],
            &[],
            &[],
            &[],
            None,
            (901, planted::T2_USER, "United States"),
            None,
            None,
        ),
        1,
    );
    // T3: a tweet mentioning the expected user, with the media URL in
    // entities.urls instead of entities.media.
    tweets.insert(
        tweet(
            &shapes,
            1_000_003,
            "great provenance talk by @nested_data_nerd",
            &[planted::T3_HASHTAG],
            &[],
            &["https://pic.example.com/slides.png"],
            &[(902, planted::T3_USER)],
            Some("Germany"),
            (903, "conference_bot", "Germany"),
            None,
            None,
        ),
        1,
    );
    // The mentioned user's own tweet (join partner for T3).
    tweets.insert(
        tweet(
            &shapes,
            1_000_004,
            "slides from my talk",
            &["slides"],
            &[],
            &[],
            &[],
            Some("Germany"),
            (902, planted::T3_USER, "Germany"),
            None,
            None,
        ),
        1,
    );
    // T4: a UEFA tweet whose author is located in England; place.country is null.
    tweets.insert(
        tweet(
            &shapes,
            1_000_005,
            "Uefa champions league night! #LiverpoolFC",
            &[planted::T4_HASHTAG],
            &[],
            &[],
            &[],
            None,
            (904, "anfield_faithful", "England"),
            None,
            None,
        ),
        1,
    );
    // T4 (continued): another tweet using the same hashtag, from a place with
    // a recorded country but without "Uefa" in the text.
    tweets.insert(
        tweet(
            &shapes,
            1_000_008,
            "match day at Anfield #LiverpoolFC",
            &[planted::T4_HASHTAG],
            &[],
            &[],
            &[],
            Some("England"),
            (907, "kop_end", "England"),
            None,
            None,
        ),
        1,
    );
    // T_ASD: the famous tweet is a *retweet*; the erroneous query flattens
    // quoted tweets instead.
    tweets.insert(
        tweet(
            &shapes,
            1_000_006,
            "RT: one small step",
            &["history"],
            &[],
            &[],
            &[],
            Some("United States"),
            (905, "press_account", "United States"),
            Some((planted::TASD_TEXT, 50_000)),
            None,
        ),
        1,
    );
    // A quoted tweet so the erroneous T_ASD query still returns something.
    tweets.insert(
        tweet(
            &shapes,
            1_000_007,
            "quoting an interesting thread",
            &["threads"],
            &[],
            &[],
            &[],
            Some("France"),
            (906, "quoting_user", "France"),
            None,
            Some(("an interesting thread", 12)),
        ),
        1,
    );

    let mut db = Database::new();
    db.add_relation("tweets", tweet_type(), tweets);
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_tweets_have_the_documented_quirks() {
        let db = twitter_database(TwitterConfig { scale: 20, seed: 2 });
        let tweets = db.relation("tweets").unwrap();
        assert!(tweets.total() >= 27);
        // T1: the LeBron tweet has its URL only in entities.urls.
        let lebron = tweets
            .iter()
            .map(|(v, _)| v)
            .find(|v| v.get_path(&"text".into()).unwrap() == Value::str(planted::T1_TEXT))
            .unwrap();
        assert!(lebron.get_path(&"entities.media".into()).unwrap().as_bag().unwrap().is_empty());
        assert!(!lebron.get_path(&"entities.urls".into()).unwrap().as_bag().unwrap().is_empty());
        // T2: the fan's place.country is null but user.location is the US.
        let fan = tweets
            .iter()
            .map(|(v, _)| v)
            .find(|v| v.get_path(&"user.name".into()).unwrap() == Value::str(planted::T2_USER))
            .unwrap();
        assert!(fan.get_path(&"place.country".into()).unwrap().is_null());
        assert_eq!(fan.get_path(&"user.location".into()).unwrap(), Value::str("United States"));
        // T_ASD: the famous tweet is a retweet, not a quote.
        let famous = tweets
            .iter()
            .map(|(v, _)| v)
            .find(|v| {
                v.get_path(&"retweet_status.text".into())
                    .map(|t| t == Value::str(planted::TASD_TEXT))
                    .unwrap_or(false)
            })
            .unwrap();
        assert!(famous.get_path(&"quoted_status".into()).unwrap().is_null());
    }

    #[test]
    fn deterministic_generation() {
        let a = twitter_database(TwitterConfig { scale: 40, seed: 9 });
        let b = twitter_database(TwitterConfig { scale: 40, seed: 9 });
        assert_eq!(a.relation("tweets").unwrap(), b.relation("tweets").unwrap());
    }
}
