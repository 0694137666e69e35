//! Run the equivalence matrix (`cb_bench::matrix`): print the table, exit 1
//! naming every failed check.
fn main() {
    let matrix = cb_bench::matrix::run();
    print!("{}", matrix.render());
    let errors = matrix.errors();
    errors.iter().for_each(|e| eprintln!("matrix: {e}"));
    std::process::exit(i32::from(!errors.is_empty()));
}
