// Fixture: the other file of the `dead-pub` case, calling one function.

fn main() {
    assert_eq!(called_elsewhere(), 2);
}
