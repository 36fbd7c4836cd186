//! Fixture: the PR 4 `annotation_at` bug class — a ground/symbolic fast
//! path gated on only one of the two relational operands.

/// The extended annotation lookup with the one-sided gate: a symbolic
/// probe tuple against a ground relation takes the structural fast path
/// and silently drops its equality tokens.
pub fn annotation_at<A: AggAnnotation>(rel: &MKRel<A>, t: &Tuple<Value<A>>) -> Result<A> {
    if !has_symbolic(rel) {
        return Ok(rel.annotation(t));
    }
    let positions: Vec<usize> = (0..rel.schema().arity()).collect();
    let mut parts = Vec::new();
    for (t2, k2) in rel.iter() {
        let tok = tuple_eq_token(t2, t, &positions)?;
        let part = k2.times(&tok);
        if !part.is_zero() {
            parts.push(part);
        }
    }
    Ok(A::sum(parts))
}
