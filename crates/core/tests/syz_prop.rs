//! Property tests for the Syzkaller-log adapter and streaming analyzer.

use iocov::syzlang::{parse_program, parse_to_trace, SyzArg};
use iocov::{Iocov, StreamingAnalyzer, TraceFilter};
use iocov_trace::{ArgValue, Trace, TraceEvent};
use proptest::prelude::*;

/// Renders a call in Syzkaller syntax from structured pieces.
fn render_call(
    result_var: Option<u32>,
    name: &str,
    args: &[(bool, u64)], // (render_as_resource, value)
    path: Option<&str>,
    retval: i64,
) -> String {
    let mut line = String::new();
    if let Some(v) = result_var {
        line.push_str(&format!("r{v} = "));
    }
    line.push_str(name);
    line.push('(');
    let mut rendered: Vec<String> = Vec::new();
    if let Some(p) = path {
        rendered.push(format!("&(0x7f0000000000)='{p}\\x00'"));
    }
    for (as_resource, value) in args {
        if *as_resource {
            rendered.push(format!("r{}", value % 8));
        } else {
            rendered.push(format!("{value:#x}"));
        }
    }
    line.push_str(&rendered.join(", "));
    line.push_str(&format!(") # {retval}"));
    line
}

proptest! {
    /// Any rendered call parses back to its structural pieces.
    #[test]
    fn rendered_calls_roundtrip(
        var in proptest::option::of(0u32..8),
        name in "[a-z][a-z0-9_]{1,12}",
        args in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..5),
        path in proptest::option::of("[a-zA-Z0-9/._-]{1,24}"),
        retval in any::<i64>(),
    ) {
        let line = render_call(var, &name, &args, path.as_deref(), retval);
        let program = parse_program(&line).expect("rendered call parses");
        prop_assert_eq!(program.calls.len(), 1);
        let call = &program.calls[0];
        prop_assert_eq!(&call.name, &name);
        prop_assert_eq!(call.retval, Some(retval));
        prop_assert_eq!(call.result_var.is_some(), var.is_some());
        let expected_args = args.len() + usize::from(path.is_some());
        prop_assert_eq!(call.args.len(), expected_args);
        if let Some(p) = &path {
            prop_assert_eq!(&call.args[0], &SyzArg::StrPtr(p.clone()));
        }
    }

    /// Converting a parsed program to a trace preserves call count and
    /// retvals.
    #[test]
    fn program_to_trace_preserves_calls(
        retvals in proptest::collection::vec(-200i64..1_000_000, 1..20),
    ) {
        let log: String = retvals
            .iter()
            .enumerate()
            .map(|(i, r)| format!("write({:#x}, 0x0, {:#x}) # {r}\n", 3 + i, i * 7))
            .collect();
        let trace = parse_to_trace(&log).unwrap();
        prop_assert_eq!(trace.len(), retvals.len());
        for (event, retval) in trace.iter().zip(&retvals) {
            prop_assert_eq!(event.retval, *retval);
            prop_assert_eq!(event.name.as_str(), "write");
        }
    }

    /// Streaming analysis equals batch analysis on arbitrary event
    /// sequences, for both filtered and unfiltered configurations.
    #[test]
    fn streaming_equals_batch(
        ops in proptest::collection::vec((0u8..5, 0u32..6, -3i64..10), 1..60),
    ) {
        let mut events = Vec::new();
        for (kind, file_idx, ret) in ops {
            let event = match kind {
                0 => TraceEvent::build(
                    "open",
                    2,
                    vec![
                        ArgValue::Path(format!("/mnt/test/f{file_idx}")),
                        ArgValue::Flags(0),
                        ArgValue::Mode(0o644),
                    ],
                    ret,
                ),
                1 => TraceEvent::build(
                    "open",
                    2,
                    vec![
                        ArgValue::Path(format!("/outside/f{file_idx}")),
                        ArgValue::Flags(0o101),
                        ArgValue::Mode(0o644),
                    ],
                    ret,
                ),
                2 => TraceEvent::build(
                    "write",
                    1,
                    vec![ArgValue::Fd(ret as i32), ArgValue::Ptr(1), ArgValue::UInt(512)],
                    ret,
                ),
                3 => TraceEvent::build("close", 3, vec![ArgValue::Fd(ret as i32)], 0),
                _ => TraceEvent::build(
                    "chdir",
                    80,
                    vec![ArgValue::Path(format!("/mnt/test/d{file_idx}"))],
                    ret,
                ),
            };
            events.push(event);
        }
        let trace = Trace::from_events(events.clone());
        for filter in [TraceFilter::keep_all(), TraceFilter::mount_point("/mnt/test").unwrap()] {
            let batch = Iocov::with_filter(filter.clone()).analyze(&trace);
            let mut streaming = StreamingAnalyzer::new(filter);
            // Push in several chunks to exercise boundary handling.
            for chunk in events.chunks(7) {
                streaming.push_all(chunk);
            }
            prop_assert_eq!(batch, streaming.report());
        }
    }
}
