// Seeded-violation fixture: `ghost` has a stats slot but no parse arm, and
// the counter table declares a family and a stats key the fixture README
// never mentions.

const VERBS: [&str; 2] = ["solve", "ghost"];

impl ServerState {
    fn counters(&self) -> Vec<(&'static str, Vec<Counter>)> {
        let top = vec![
            stat("requests", 3).metric("rpq_requests_total", "Requests (any verb)."),
            stat("hidden", 0),
        ];
        vec![("", top)]
    }
}
