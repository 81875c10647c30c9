//! Replays a fuzz reproducer file against the engine decoder.
fn main() {
    let path = std::env::args().nth(1).expect("usage: repro <file>");
    let bytes = std::fs::read(&path).expect("read repro");
    println!("{} bytes", bytes.len());
    let engine = trajcl_engine::Engine::from_bytes(&bytes);
    match &engine {
        Ok(e) => {
            println!("decoded ok; probing");
            let probe: trajcl_geo::Trajectory = (0..4)
                .map(|i| trajcl_geo::Point::new(100.0 + 50.0 * i as f64, 200.0))
                .collect();
            println!(
                "embed: {:?}",
                e.embed_all(std::slice::from_ref(&probe))
                    .map(|t| t.shape().dims().to_vec())
            );
        }
        Err(e) => println!("rejected: {e}"),
    }
}
