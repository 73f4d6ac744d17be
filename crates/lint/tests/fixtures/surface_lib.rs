//! A library whose items an example, a binary and tests name.

pub fn shown_in_example() {}

pub fn shown_and_tested() {}

pub fn run_by_binary() {}

pub fn tested_only() {}

pub struct Unnamed;

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::tested_only();
    }
}
