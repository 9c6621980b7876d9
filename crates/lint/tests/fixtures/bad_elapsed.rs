// Fixture: a hidden wall-clock read in library code — `Instant::elapsed` is
// `Instant::now() - self`.
pub fn took_ms(start: std::time::Instant) -> u128 {
    start.elapsed().as_millis()
}
