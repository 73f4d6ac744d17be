//! An example driving the fixture library: it names three items, one of
//! which a binary also runs and one of which tests also name.

#![forbid(unsafe_code)]

fn main() {
    lib::shown_in_example();
    lib::shown_and_tested();
    lib::run_by_binary();
}
