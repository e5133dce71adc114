//! Row-parallel execution over row-major buffers.
//!
//! Every parallel kernel in this crate writes its output one row at a time
//! and computes each row exactly as the serial loop would. Rows are split
//! into contiguous chunks, one per `std::thread::scope` worker, and no row's
//! value depends on which chunk or thread computed it, so results are
//! bit-identical for every thread count.

/// Rows per worker below which a kernel runs on the calling thread alone:
/// spawning would cost more than the work.
const MIN_ROWS_PER_THREAD: usize = 4096;

/// Worker threads for a kernel over `rows` rows: the available cores, but
/// no more than one per [`MIN_ROWS_PER_THREAD`] rows. Small problems skip
/// the core-count query, which reads the scheduler and cgroup limits.
pub(crate) fn threads_for(rows: usize) -> usize {
    let most = rows / MIN_ROWS_PER_THREAD;
    if most <= 1 {
        return 1;
    }
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(most)
}

/// Calls `f(r, row)` for every `width`-wide row of the row-major buffer
/// `data`, spread over `threads` scoped threads (see [`for_each_chunk`]).
pub(crate) fn for_each_row<F>(data: &mut [f64], width: usize, threads: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    for_each_chunk(data, width, threads, |first, chunk| {
        for (i, row) in chunk.chunks_exact_mut(width).enumerate() {
            f(first + i, row);
        }
    });
}

/// Splits the row-major buffer `data` of `width`-wide rows into `threads`
/// contiguous chunks of whole rows and calls `f(first_row, chunk)` on each,
/// one per scoped thread (the first on the calling thread). A zero `width`
/// means no rows.
pub(crate) fn for_each_chunk<F>(data: &mut [f64], width: usize, threads: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if width == 0 {
        return;
    }
    let rows = data.len() / width;
    let threads = threads.clamp(1, rows.max(1));
    if threads == 1 {
        f(0, data);
        return;
    }
    let per = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut chunks = data.chunks_mut(per * width);
        let head = chunks.next();
        for (t, chunk) in chunks.enumerate() {
            let f = &f;
            scope.spawn(move || f((t + 1) * per, chunk));
        }
        if let Some(chunk) = head {
            f(0, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_is_visited_once_with_its_index() {
        for threads in 1..=4 {
            let mut data = vec![0.0; 7 * 3];
            for_each_row(&mut data, 3, threads, |r, row| {
                for v in row.iter_mut() {
                    *v += r as f64;
                }
            });
            let want: Vec<f64> = (0..7).flat_map(|r| [r as f64; 3]).collect();
            assert_eq!(data, want, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_zero_width_buffers_are_fine() {
        for_each_row(&mut [], 3, 2, |_, _| panic!("no rows"));
        for_each_row(&mut [], 0, 2, |_, _| panic!("no rows"));
    }

    #[test]
    fn small_problems_stay_on_one_thread() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(MIN_ROWS_PER_THREAD - 1), 1);
    }
}
