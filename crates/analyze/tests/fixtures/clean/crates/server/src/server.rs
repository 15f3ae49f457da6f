// Clean fixture: the VERBS table matches the parse arms exactly, and the
// README documents every counter.

const VERBS: [&str; 2] = ["solve", "stats"];

impl ServerState {
    fn counters(&self) -> Vec<(&'static str, Vec<Counter>)> {
        let top = vec![stat("requests", 3).metric("rpq_requests_total", "Requests (any verb).")];
        let router = vec![stat("overloaded", 0)];
        vec![("", top), ("router", router)]
    }
}
